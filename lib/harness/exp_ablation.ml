(* E12 - ablation of the fault-tolerant averaging function (Section 4.1:
   "the averaging function can be considered the heart of the algorithm").

   Grid: Byzantine strategy x averaging function, including unprotected
   variants with the f-fold reduction disabled.  All processes wake
   together (offset spread 0) and the attackers send in every round, so
   the unprotected averages fail for the interesting reason - in-band
   Byzantine timing - rather than a missing round-0 entry.  Three failure
   shapes appear:

   - a colluding two-faced-late pair drags the unprotected averages'
     groups apart round after round (skew grows past gamma);
   - a silent pair collapses them outright (the "arbitrary" ARR sentinel
     reaches the average, throwing the clock off by astronomical amounts,
     after which every timer lands in the past and the process wedges);
   - the reduce-protected averages absorb both, staying under gamma. *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params
module Averaging = Csync_core.Averaging

let min_rounds (r : Scenario.result) =
  List.fold_left
    (fun acc (_, records) -> min acc (List.length records))
    max_int r.Scenario.histories

let rounds ~quick = if quick then 12 else 25

let row ~quick faults averaging =
  let params = Defaults.base () in
  let gamma = Params.gamma params in
  let rounds = rounds ~quick in
  let r =
    Scenario.run
      {
        (Scenario.default params) with
        Scenario.averaging;
        faults;
        offset_spread = 0.;
        rounds;
      }
  in
  let done_ = min_rounds r in
  let outcome =
    if done_ < rounds - 2 then
      Printf.sprintf "COLLAPSED (wedged after %d rounds)" done_
    else if r.Scenario.steady_skew <= gamma then "bounded"
    else "UNBOUNDED drift apart"
  in
  [
    Averaging.name averaging;
    string_of_int done_;
    Table.cell_e r.Scenario.steady_skew;
    Table.cell_ratio (r.Scenario.steady_skew /. gamma);
    outcome;
  ]

let cells ~quick =
  let { Params.n; beta; _ } = Defaults.base () in
  let two_faced_late pid =
    ( pid,
      Scenario.Two_faced_late
        { offset_a = -8. *. beta; offset_b = beta /. 2.; split = (n - 2) / 2 } )
  in
  let strategies =
    [
      ("two-faced-late", [ two_faced_late (n - 2); two_faced_late (n - 1) ]);
      ("silent", [ (n - 2, Scenario.Silent); (n - 1, Scenario.Silent) ]);
    ]
  in
  let averagings =
    if quick then [ Averaging.midpoint; Averaging.unprotected Averaging.Mean ]
    else
      [
        Averaging.midpoint;
        Averaging.mean;
        Averaging.median;
        Averaging.unprotected Averaging.Midpoint;
        Averaging.unprotected Averaging.Mean;
        Averaging.unprotected Averaging.Median;
      ]
  in
  List.concat_map
    (fun (strategy, faults) ->
      List.map
        (fun averaging ->
          Experiment.cell
            ~label:
              (Printf.sprintf "strategy=%s,averaging=%s" strategy
                 (Averaging.name averaging))
            (fun () -> [ strategy :: row ~quick faults averaging ]))
        averagings)
    strategies

let assemble ~quick:_ rows =
  let table =
    Table.make
      ~title:"E12: ablation - is the f-fold reduction actually needed?"
      ~columns:
        [ "strategy"; "averaging"; "rounds done"; "steady skew"; "skew/gamma";
          "outcome" ]
      ()
  in
  [
    Table.note
      (Table.add_rows table (List.concat rows))
      "reduce-protected averages absorb both strategies (skew <= gamma).  \
       Unprotected midpoint and mean either get dragged apart by the \
       two-faced pair or collapse outright when a sender goes silent - which \
       is why the paper calls mid o reduce 'the heart of the algorithm'.  \
       The unprotected median survives these casts (rank statistics have \
       innate outlier tolerance) but, unlike mid o reduce, carries no \
       halving guarantee - see E3/E10.";
  ]

let experiment =
  Experiment.of_cells ~id:"E12"
    ~title:"Ablation of the fault-tolerant averaging function"
    ~paper_ref:"Section 4.1; Appendix (reduce/mid machinery)" ~cells ~assemble
