(* E7 - k exchanges per round (end of Section 7).

   With k exchange-and-adjust cycles bunched at the start of each round,
   the sustainable closeness improves from 4 eps + 4 rho P towards
   4 eps + 2 rho P (the paper's beta >= 4 eps + 2 rho P 2^k/(2^k-1)).  The
   drift term must dominate for the effect to be visible, so this runs at
   rho = 1e-5 with a long round (P = 5 s) and small eps. *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params
module Bounds = Csync_core.Bounds

let rho = 1e-5 and eps = 1e-5 and big_p = 5.0

let row ~quick k =
  let params = Defaults.base ~rho ~delta:1e-3 ~eps ~big_p () in
  let scenario =
    Scenario.with_standard_faults
      {
        (Scenario.default params) with
        Scenario.exchanges = k;
        rounds = (if quick then 10 else 20);
        delay_kind = Scenario.Extreme_delay;
        clock_kind = Scenario.Adversarial_drift;
      }
  in
  let r = Scenario.run scenario in
  (* Steady-state round-start spread: max B^i over the last third. *)
  let bs = Array.of_list (List.map snd r.Scenario.round_spread) in
  let steady_b =
    let n = Array.length bs in
    let acc = ref 0. in
    for i = 2 * n / 3 to n - 1 do
      acc := Float.max !acc bs.(i)
    done;
    !acc
  in
  [
    [
      string_of_int k;
      Table.cell_e steady_b;
      Table.cell_e (Bounds.k_exchange_beta ~rho ~eps ~big_p ~k);
      Table.cell_e (Bounds.k_exchange_beta ~rho ~eps ~big_p ~k:1);
      Table.cell_e ((4. *. eps) +. (2. *. rho *. big_p));
    ];
  ]

let cells ~quick =
  List.map
    (fun k ->
      Experiment.cell ~label:(Printf.sprintf "k=%d" k) (fun () -> row ~quick k))
    (if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ])

let assemble ~quick:_ rows =
  let table =
    Table.make ~title:"E7: k exchanges per round - sustainable closeness"
      ~columns:
        [ "k"; "steady B (measured)"; "beta formula 4e+2rP*2^k/(2^k-1)";
          "k=1 formula"; "limit 4e+2rP" ]
      ()
  in
  [
    Table.note
      (Table.add_rows table (List.concat rows))
      "More exchanges per round shrink the drift contribution: measured \
       steady spread should decrease with k, tracking the 2^k/(2^k-1) \
       formula's shape, and stay below the k-th bound.";
  ]

let experiment =
  Experiment.of_cells ~id:"E7"
    ~title:"Multiple clock exchanges per round"
    ~paper_ref:"Section 7 (end): beta >= 4eps + 2rhoP 2^k/(2^k-1)" ~cells
    ~assemble
