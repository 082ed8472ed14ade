(* E10 - establishing synchronization from arbitrary clocks (Section 9.2,
   Lemma 20).

   Starts the clocks up to 10 s (and in one configuration 1000 s) apart,
   with the colluding in-range two-faced cast that makes Lemma 20's
   halving tight, and tracks B^i - the spread of nonfaulty clock values at
   the round beginnings - against the recurrence
   B^{i+1} <= B^i/2 + 2 eps + 2 rho (11 delta + 39 eps). *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params
module Bounds = Csync_core.Bounds

let b_rows ~params (series : (int * float) list) ~max_rows =
  let { Params.rho; delta; eps; _ } = params in
  let arr = Array.of_list series in
  List.init
    (min max_rows (Array.length arr - 1))
    (fun i ->
      let _, b = arr.(i) and round', b' = arr.(i + 1) in
      let predicted = Bounds.establishment_recurrence ~rho ~delta ~eps b in
      [
        string_of_int round';
        Table.cell_e b;
        Table.cell_e b';
        Table.cell_e predicted;
        Table.cell_ratio (b' /. b);
        (if b' <= predicted *. 1.05 then "yes" else "NO");
      ])

let spreads ~quick = if quick then [ 10. ] else [ 10.; 1000. ]

(* One establishment run per initial spread.  Its rows lead with a
   metadata row carrying the measured final B and round count, which
   assemble folds into the note. *)
let cells ~quick =
  List.map
    (fun initial_spread ->
      Experiment.cell ~label:(Printf.sprintf "spread=%.0f" initial_spread)
        (fun () ->
          let params = Defaults.base () in
          let r =
            Runner_establishment.run
              (Runner_establishment.with_standard_faults
                 {
                   (Runner_establishment.default ~initial_spread params) with
                   Runner_establishment.rounds = (if quick then 20 else 40);
                 })
          in
          [
            Printf.sprintf "%.17g" r.Runner_establishment.final_b;
            string_of_int r.Runner_establishment.rounds_completed;
          ]
          :: b_rows ~params r.Runner_establishment.b_series ~max_rows:20))
    (spreads ~quick)

let assemble ~quick rows =
  let params = Defaults.base () in
  let fixpoint =
    Bounds.establishment_fixpoint ~rho:params.Params.rho
      ~delta:params.Params.delta ~eps:params.Params.eps
  in
  List.map2
    (fun initial_spread rows ->
      match rows with
      | [ final_b; rounds ] :: rows ->
        let table =
          Table.make
            ~title:
              (Printf.sprintf
                 "E10: establishment from clocks %.0f s apart (B^i halving)"
                 initial_spread)
            ~columns:
              [ "round i"; "B^{i-1}"; "B^i"; "recurrence bound"; "ratio";
                "within bound" ]
            ()
        in
        Table.note (Table.add_rows table rows)
          (Printf.sprintf
             "Lemma 20 fixpoint ~4eps = %.3e; measured final B = %.3e after \
              %d rounds (ratio column should sit at ~0.50 until the floor)."
             fixpoint (float_of_string final_b) (int_of_string rounds))
      | _ -> invalid_arg "Exp_establishment.assemble: unexpected cell shape")
    (spreads ~quick) rows

let experiment =
  Experiment.of_cells ~id:"E10"
    ~title:"Establishing synchronization from arbitrary clock values"
    ~paper_ref:"Section 9.2; Lemma 20" ~cells ~assemble
