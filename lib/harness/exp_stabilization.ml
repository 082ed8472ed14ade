(* E15 - self-stabilization under transient state corruption.

   Each cell throws [breadth] simultaneous state corruptions of one
   severity at distinct processes and measures how long the stabilizing
   recovery wrapper ({!Csync_core.Stabilize}) takes to pull each victim
   back inside gamma: small corruptions are absorbed by one round of
   fault-tolerant averaging, larger ones trip the update-envelope or
   stuck-timer detector and re-enter through Section 9.1 reintegration.
   Every stabilization time must respect the derived bound R
   ({!Csync_core.Stabilize.recovery_round_bound}), the same allowance the
   {!Csync_obs.Monitor.Stabilization} eventual-property monitor enforces
   online.

   Each (breadth, severity, seed) triple is one pool cell, fully
   determined by its arguments, so the table is byte-identical at any
   [--jobs]. *)

module Table = Csync_metrics.Table
module Plan = Csync_chaos.Plan
module Params = Csync_core.Params
module Stabilize = Csync_core.Stabilize

let severities = [ 0.25; 0.5; 1.0 ]
let corruption_round = 5.

let seeds ~quick = if quick then [ 1 ] else [ 1; 2; 3 ]

let plan ~params ~breadth ~severity =
  let big_p = (params : Params.t).Params.big_p in
  List.init breadth (fun i ->
      Plan.State_corrupt
        {
          pid = 1 + i;
          at = (corruption_round +. (0.1 *. float_of_int i)) *. big_p;
          severity;
        })

let row ~params ~seed ~breadth ~severity =
  let big_p = (params : Params.t).Params.big_p in
  let t =
    Runner_chaos.make ~seed ~params (plan ~params ~breadth ~severity)
  in
  let r = Runner_chaos.run t in
  let ss = r.Runner_chaos.stabilizations in
  let breaches =
    List.fold_left (fun a s -> a + s.Runner_chaos.wrapper_breaches) 0 ss
  in
  let stab_rounds =
    List.fold_left
      (fun a s -> Float.max a (s.Runner_chaos.stabilized_in /. big_p))
      0. ss
  in
  let readmit =
    match
      List.filter_map (fun s -> s.Runner_chaos.readmitted_at) ss
    with
    | [] -> "-"
    | ts ->
      Printf.sprintf "%.1f"
        (List.fold_left Float.max neg_infinity ts /. big_p)
  in
  let bound = Stabilize.recovery_round_bound params in
  let within =
    stab_rounds <= float_of_int bound
    && List.for_all (fun s -> s.Runner_chaos.healthy_at_end) ss
  in
  [
    string_of_int seed;
    string_of_int breadth;
    Printf.sprintf "%.2f" severity;
    string_of_int breaches;
    Printf.sprintf "%.1f" stab_rounds;
    string_of_int bound;
    readmit;
    (if within then "yes" else "NO");
    Table.cell_e r.Runner_chaos.max_clean_skew;
    Table.cell_e r.Runner_chaos.gamma;
    (if
       Runner_chaos.agreement_ok r
       && Runner_chaos.stabilizations_ok ~params r
     then "yes"
     else "NO");
  ]

let cells ~quick =
  let params = Defaults.base () in
  List.concat_map
    (fun breadth ->
      List.concat_map
        (fun severity ->
          List.map
            (fun seed ->
              Experiment.cell
                ~label:
                  (Printf.sprintf "breadth=%d sev=%.2f seed=%d" breadth
                     severity seed)
                (fun () -> [ row ~params ~seed ~breadth ~severity ]))
            (seeds ~quick))
        severities)
    (List.init (params : Params.t).Params.f (fun i -> i + 1))

let assemble ~quick:_ rows =
  let table =
    Table.make
      ~title:
        "E15: self-stabilization time vs corruption breadth and severity"
      ~columns:
        [ "seed"; "breadth"; "severity"; "breaches"; "stab rounds"; "R";
          "readmit rd"; "within R"; "clean skew"; "gamma"; "ok" ]
      ()
  in
  let table = Table.add_rows table (List.concat rows) in
  [
    Table.note table
      "Corruptions land at round 5.  'breaches' counts detector firings \
       (0: absorbed by one round of averaging); 'stab rounds' is the \
       worst victim's time back to gamma, which must stay within the \
       derived bound R; 'readmit rd' is when blame windows close and the \
       victim rejoins the clean set.  Severity 0.25 heals silently, 0.5 \
       trips the update-envelope detector, 1.0 also loses the round timer \
       and takes the stuck-detection path.";
  ]

let experiment =
  Experiment.of_cells ~id:"E15"
    ~title:"Self-stabilization: recovery from at most f transient corruptions"
    ~paper_ref:"Section 9.1 (reintegration reused as stabilizing recovery)"
    ~cells ~assemble
