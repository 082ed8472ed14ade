(* E6 - midpoint vs mean vs median (end of Section 7).

   With f fixed and n growing, the mean variant's contraction rate is
   f/(n - 2f), so for large n it tolerates the same faults with a smaller
   steady-state error (approaching 2 eps), while the midpoint stays at its
   4 eps + 4 rho P fixpoint.  The sweep holds the standard Byzantine cast
   and measures steady skew per averaging function. *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params
module Averaging = Csync_core.Averaging
module Bounds = Csync_core.Bounds

let row ~quick ~n averaging =
  let f = 2 in
  let params = Defaults.base ~n ~f () in
  let scenario =
    Scenario.with_standard_faults
      {
        (Scenario.default params) with
        Scenario.averaging;
        delay_kind = Scenario.Uniform_delay;
        rounds = (if quick then 15 else 30);
      }
  in
  let r = Scenario.run scenario in
  let { Params.rho; delta; eps; big_p; _ } = params in
  let fixpoint =
    match averaging.Averaging.combine with
    | Averaging.Mean when averaging.Averaging.reduce ->
      Bounds.mean_fixpoint ~n ~f ~rho ~eps ~big_p
    | _ -> Bounds.maintenance_fixpoint ~rho ~delta ~eps ~big_p
  in
  [
    [
      string_of_int n;
      Averaging.name averaging;
      Table.cell_ratio (Averaging.convergence_rate averaging ~n ~f);
      Table.cell_e r.Scenario.steady_skew;
      Table.cell_e fixpoint;
    ];
  ]

let cells ~quick =
  let ns = if quick then [ 7; 16 ] else [ 7; 10; 16; 25 ] in
  List.concat_map
    (fun n ->
      List.map
        (fun averaging ->
          Experiment.cell
            ~label:
              (Printf.sprintf "n=%d,averaging=%s" n (Averaging.name averaging))
            (fun () -> row ~quick ~n averaging))
        [ Averaging.midpoint; Averaging.mean; Averaging.median ])
    ns

let assemble ~quick:_ rows =
  let table =
    Table.make
      ~title:"E6: averaging-function variants, f = 2 fixed, n growing"
      ~columns:
        [ "n"; "averaging"; "contraction (theory)"; "steady skew";
          "fixpoint (theory)" ]
      ()
  in
  [
    Table.note
      (Table.add_rows table (List.concat rows))
      "Section 7: with f fixed, the mean's contraction f/(n-2f) vanishes as \
       n grows and its error floor approaches 2 eps, overtaking the \
       midpoint's 4 eps fixpoint for large n.";
  ]

let experiment =
  Experiment.of_cells ~id:"E6"
    ~title:"Midpoint vs mean vs median averaging"
    ~paper_ref:"Section 7 (end): mean converges at rate f/(n-2f)" ~cells
    ~assemble
