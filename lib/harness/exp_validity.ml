(* E4 - validity (Theorem 19).

   Long runs with adversarially drifting clocks (half pinned fast, half
   slow) and the standard Byzantine cast.  Checks that every sampled local
   time stays inside the envelope
   alpha1 (t - tmax0) - alpha3 <= L_p(t) - T0 <= alpha2 (t - tmin0) + alpha3
   and reports the measured long-run slope of the synchronized clocks
   against alpha1/alpha2.  An unsynchronized (drift-only) control run shows
   what the algorithm is being compared against. *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params

let measured_slopes (r : Scenario.result) =
  let samples = r.Scenario.sampling.Sampling.samples in
  let n = Array.length samples in
  let first = samples.(0) and last = samples.(n - 1) in
  let dt = last.Sampling.time -. first.Sampling.time in
  ( (last.Sampling.min_local -. first.Sampling.min_local) /. dt,
    (last.Sampling.max_local -. first.Sampling.max_local) /. dt )

let rounds ~quick = if quick then 30 else 100

let params () = Defaults.base ~rho:1e-5 ()

let envelope_cell ~quick (label, clock_kind, display) =
  Experiment.cell ~label (fun () ->
      let params = params () in
      let alpha1, alpha2, alpha3 = Params.validity params in
      let r =
        Scenario.run
          (Scenario.with_standard_faults
             { (Scenario.default params) with
               Scenario.clock_kind;
               rounds = rounds ~quick })
      in
      let slope_min, slope_max = measured_slopes r in
      [
        [
          display;
          Printf.sprintf "%.8f" alpha1;
          Printf.sprintf "%.8f" alpha2;
          Table.cell_e alpha3;
          Printf.sprintf "%.8f" slope_min;
          Printf.sprintf "%.8f" slope_max;
          (match r.Scenario.validity with
           | `Holds -> "yes"
           | `Violated s -> Printf.sprintf "NO at t=%.3f" s.Sampling.time);
        ];
      ])

(* Drift-only control: how far clocks wander with no algorithm at all,
   against the same fault-free system synchronized.  Each run's row is its
   steady skew. *)
let control_cell ~quick algo =
  Experiment.cell ~label:("control=" ^ Runner_baseline.algo_name algo)
    (fun () ->
      let r =
        Runner_baseline.run ~algo ~params:(params ()) ~seed:42
          ~faults:Runner_baseline.No_faults ~rounds:(rounds ~quick)
      in
      [ [ Printf.sprintf "%.17g" r.Runner_baseline.steady_skew ] ])

let cells ~quick =
  [
    envelope_cell ~quick ("clocks=drifting", Scenario.Drifting, "drifting");
    envelope_cell ~quick
      ( "clocks=adversarial-drift",
        Scenario.Adversarial_drift,
        "adversarial drift" );
    control_cell ~quick Runner_baseline.Unsynchronized;
    control_cell ~quick Runner_baseline.Welch_lynch;
  ]

let assemble ~quick:_ rows =
  let envelope, control, synced =
    match rows with
    | [ drifting; adversarial; [ [ control ] ]; [ [ synced ] ] ] ->
      (drifting @ adversarial, float_of_string control, float_of_string synced)
    | _ -> invalid_arg "Exp_validity.assemble: unexpected cell shape"
  in
  let table =
    Table.add_rows
      (Table.make ~title:"E4: validity envelope (Thm 19)"
         ~columns:
           [ "clocks"; "alpha1"; "alpha2"; "alpha3"; "slope(min)"; "slope(max)";
             "envelope holds" ]
         ())
      envelope
  in
  let control_table =
    Table.add_rows
      (Table.make ~title:"E4b: synchronized vs drift-only control"
         ~columns:[ "system"; "steady skew"; "gamma" ] ())
      [
        [
          "welch-lynch";
          Table.cell_e synced;
          Table.cell_e (Params.gamma (params ()));
        ];
        [ "no algorithm"; Table.cell_e control; "-" ];
      ]
  in
  let control_table =
    Table.note control_table
      "Validity rules out trivial 'solutions': local time must advance at \
       nearly real-time rate (slopes within [alpha1, alpha2]), yet skew \
       stays bounded, unlike the drift-only control."
  in
  [ table; control_table ]

let experiment =
  Experiment.of_cells ~id:"E4"
    ~title:"Validity: local time advances linearly with real time"
    ~paper_ref:"Theorem 19; Section 8" ~cells ~assemble
