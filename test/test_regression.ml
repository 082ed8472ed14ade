(* Regression guards for the headline reproduction results.

   Runs are deterministic given their seeds, so these pin the measured
   quantities EXPERIMENTS.md reports into generous tolerance bands: a
   change that breaks the reproduction (skew regressing toward gamma,
   halving ratios drifting off 0.5, reintegration slowing down) fails here
   even if every bound technically still holds. *)

module Scenario = Csync_harness.Scenario
module Params = Csync_core.Params
open Helpers

let t name f = Alcotest.test_case name `Quick f

let suite =
  [
    t "E1 anchor: default run skew in [0.2, 0.6] x gamma" (fun () ->
        let params = Csync_harness.Defaults.base () in
        let r =
          Scenario.run
            (Scenario.with_standard_faults
               { (Scenario.default ~seed:42 params) with
                 Scenario.delay_kind = Scenario.Extreme_delay })
        in
        let ratio = r.Scenario.max_skew /. Params.gamma params in
        check_true (Printf.sprintf "ratio %.3f" ratio) (ratio >= 0.2 && ratio <= 0.6));
    t "E1 anchor: skew scales linearly with eps (within 25%)" (fun () ->
        let skew eps =
          let params = Csync_harness.Defaults.base ~eps () in
          (Scenario.run
             (Scenario.with_standard_faults
                { (Scenario.default ~seed:42 params) with
                  Scenario.delay_kind = Scenario.Extreme_delay }))
            .Scenario.max_skew
        in
        let ratio = skew 5e-4 /. skew 1e-4 in
        check_true (Printf.sprintf "scaling %.2f" ratio) (ratio > 3.75 && ratio < 6.25));
    t "E10 anchor: halving ratio 0.5 +- 0.02 over the first ten rounds" (fun () ->
        let params = Csync_harness.Defaults.base () in
        let cfg =
          Csync_harness.Runner_establishment.with_standard_faults
            (Csync_harness.Runner_establishment.default ~seed:42
               ~initial_spread:1000. params)
        in
        let r = Csync_harness.Runner_establishment.run cfg in
        let b = Array.of_list (List.map snd r.Csync_harness.Runner_establishment.b_series) in
        for i = 1 to 10 do
          let ratio = b.(i) /. b.(i - 1) in
          check_true (Printf.sprintf "round %d ratio %.4f" i ratio)
            (ratio >= 0.48 && ratio <= 0.52)
        done);
    t "E9 anchor: rejoin within three rounds of waking" (fun () ->
        let params = Csync_harness.Defaults.base () in
        let cfg = Csync_harness.Runner_reintegration.default ~seed:42 params in
        let r = Csync_harness.Runner_reintegration.run cfg in
        match r.Csync_harness.Runner_reintegration.join_round with
        | Some k ->
          check_true
            (Printf.sprintf "joined at %d, woke at %.1f" k
               cfg.Csync_harness.Runner_reintegration.wake_round)
            (float_of_int k
             <= cfg.Csync_harness.Runner_reintegration.wake_round +. 3.)
        | None -> Alcotest.fail "never joined");
    t "E11 anchor: sigma=0 updates hear fewer than n - f, |ADJ| stays bounded; \
       sigma=4eps is lossless"
      (fun () ->
        (* Section 9.3's pathology: simultaneous broadcasts overflow the
           receive buffers, so every update hears fewer than n - f
           senders.  The survivors' average keeps every process running
           with |ADJ| under the Theorem 18 bound; staggering by 4 eps
           removes the drops. *)
        let params = Csync_harness.Defaults.base () in
        let run sigma =
          Scenario.run
            {
              (Scenario.default ~seed:42 params) with
              Scenario.stagger = sigma;
              collision = Some (3, params.Params.delta /. 2.);
              rounds = 12;
            }
        in
        let updates r = List.concat_map snd r.Scenario.histories in
        let short r =
          List.length
            (List.filter
               (fun u ->
                 u.Csync_core.Maintenance.arrivals
                 < params.Params.n - params.Params.f)
               (updates r))
        in
        let jammed = run 0. in
        check_int "sigma=0 drops" 391 jammed.Scenario.dropped;
        check_int "processes" 7 (List.length jammed.Scenario.histories);
        List.iter
          (fun (pid, records) ->
            check_int (Printf.sprintf "pid %d rounds" pid) 14
              (List.length records))
          jammed.Scenario.histories;
        check_int "sigma=0 short updates" 98 (short jammed);
        check_int "sigma=0 updates" 98 (List.length (updates jammed));
        let max_adj =
          List.fold_left
            (fun acc u -> Float.max acc (Float.abs u.Csync_core.Maintenance.adj))
            0. (updates jammed)
        in
        check_float_tol 1e-6 "sigma=0 max |ADJ|" 3.16e-4 max_adj;
        check_true
          (Printf.sprintf "max |ADJ| %.3e within bound" max_adj)
          (max_adj <= Params.adjustment_bound params);
        let staggered = run (4. *. params.Params.eps) in
        check_int "no drops" 0 staggered.Scenario.dropped;
        check_int "sigma=4eps updates" 98 (List.length (updates staggered));
        check_int "sigma=4eps short updates" 0 (short staggered));
    t "E4 anchor: synchronized slope within 1 +- 2e-4" (fun () ->
        let params = Csync_harness.Defaults.base ~rho:1e-5 () in
        let r =
          Csync_harness.Runner_baseline.run
            ~algo:Csync_harness.Runner_baseline.Welch_lynch ~params ~seed:42
            ~faults:Csync_harness.Runner_baseline.Standard_faults ~rounds:40
        in
        let s = r.Csync_harness.Runner_baseline.slope_max in
        check_true (Printf.sprintf "slope %.6f" s) (s > 0.9998 && s < 1.0003));
    t "E9 anchor: full-mode rows are pinned" (fun () ->
        (* The three full-mode rows, byte for byte: one per wake round. *)
        let rows =
          Csync_harness.Experiment.tasks ~quick:false
            Csync_harness.Exp_reintegration.experiment
          |> List.concat_map (fun (_, thunk) -> thunk ())
        in
        Alcotest.(check (list (list string)))
          "rows"
          [
            [ "8.4"; "0.371"; "11"; "3.707e-01"; "1.067e-04"; "5.221e-04";
              "3.799e-04"; "yes" ];
            [ "8.9"; "0.371"; "11"; "3.707e-01"; "1.067e-04"; "5.221e-04";
              "3.799e-04"; "yes" ];
            [ "12.1"; "0.371"; "15"; "3.705e-01"; "1.038e-04"; "5.221e-04";
              "3.799e-04"; "yes" ];
          ]
          rows);
    t "E15 beyond f: clean skew stays under P at breadth 3 and 4" (fun () ->
        (* More victims than f is outside the paper's model, so gamma is not
           owed; but no update may average an ARR sentinel (~5e11 s). *)
        let params = Csync_harness.Defaults.base () in
        List.iter
          (fun (breadth, severity, seed) ->
            let r =
              Csync_harness.Runner_chaos.run
                (Csync_harness.Runner_chaos.make ~seed ~params
                   (Csync_harness.Exp_stabilization.plan ~params ~breadth
                      ~severity))
            in
            let skew = r.Csync_harness.Runner_chaos.max_clean_skew in
            check_true
              (Printf.sprintf "breadth %d sev %.2f seed %d: clean skew %.3e < P"
                 breadth severity seed skew)
              (skew < params.Params.big_p))
          (List.concat_map
             (fun breadth ->
               List.concat_map
                 (fun severity ->
                   List.map (fun seed -> (breadth, severity, seed)) [ 1; 2; 3 ])
                 [ 0.5; 1.0 ])
             [ 3; 4 ]));
  ]
