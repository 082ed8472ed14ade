(* Tests for the extension modules: adjustment smoothing and the
   live-runtime clock arithmetic (plus one short real UDP round-trip). *)

module Smoothing = Csync_core.Smoothing
module Params = Csync_core.Params
module Wall_clock = Csync_runtime.Wall_clock
open Helpers

let t name f = Alcotest.test_case name `Quick f

let p = params ()

let smoothing_tests =
  [
    t "create validates" (fun () ->
        check_raises_invalid "interval" (fun () ->
            ignore (Smoothing.create ~slew_interval:0.)));
    t "no jumps: smoothed = raw" (fun () ->
        let s = Smoothing.create ~slew_interval:1. in
        check_float "residual" 0. (Smoothing.residual s ~phys:5.);
        check_float "time" 7.5 (Smoothing.time s ~phys:5. ~corr:2.5);
        check_true "settled" (Smoothing.is_settled s ~phys:5.));
    t "a jump slews linearly and settles" (fun () ->
        let s = Smoothing.create ~slew_interval:1. in
        let s = Smoothing.observe s ~at_phys:10. ~adj:(-0.4) in
        (* Immediately after: whole adjustment unsurfaced. *)
        check_float_tol 1e-12 "at jump" (-0.4) (Smoothing.residual s ~phys:10.);
        check_float_tol 1e-12 "halfway" (-0.2) (Smoothing.residual s ~phys:10.5);
        check_float "done" 0. (Smoothing.residual s ~phys:11.);
        check_true "settled" (Smoothing.is_settled s ~phys:11.);
        (* CORR went 0 -> -0.4 at the jump; smoothed time = phys + corr -
           residual = 10 - 0.4 + 0.4 = 10: continuous with the pre-jump
           value. *)
        check_float_tol 1e-12 "continuous" 10.
          (Smoothing.time s ~phys:10. ~corr:(-0.4)));
    t "negative adjustment never makes time retreat" (fun () ->
        let s = Smoothing.create ~slew_interval:1. in
        let s = Smoothing.observe s ~at_phys:10. ~adj:(-0.4) in
        let corr = -0.4 in
        let prev = ref neg_infinity in
        for i = 0 to 200 do
          let phys = 9.9 +. (float_of_int i /. 100.) in
          let now = Smoothing.time s ~phys ~corr in
          check_true "monotone" (now >= !prev);
          prev := now
        done);
    t "raw time jumps backwards in the same situation" (fun () ->
        (* Sanity check of the premise: without smoothing, corr going from
           0 to -0.4 at phys=10 sets the clock back. *)
        let before = 10. +. 0. and after = 10. +. (-0.4) in
        check_true "raw retreats" (after < before));
    t "overlapping jumps accumulate" (fun () ->
        let s = Smoothing.create ~slew_interval:1. in
        let s = Smoothing.observe s ~at_phys:10. ~adj:(-0.2) in
        let s = Smoothing.observe s ~at_phys:10.5 ~adj:(-0.2) in
        (* At 10.75: first jump 3/4 done (residual -0.05), second 1/4 done
           (residual -0.15). *)
        check_float_tol 1e-12 "sum" (-0.2) (Smoothing.residual s ~phys:10.75));
    t "out-of-order observation rejected" (fun () ->
        let s = Smoothing.observe (Smoothing.create ~slew_interval:1.) ~at_phys:10. ~adj:0.1 in
        check_raises_invalid "order" (fun () ->
            ignore (Smoothing.observe s ~at_phys:9. ~adj:0.1)));
    t "of_params guarantees monotonicity per Lemma 7" (fun () ->
        let s = Smoothing.of_params p in
        let worst = -.Params.adjustment_bound p in
        check_true "slope positive" (Smoothing.monotone_slope_bound s ~adj:worst > 0.));
    t "smoothed skew stays within gamma + adjustment bound" (fun () ->
        (* Integration: apply smoothing to every process of a real run and
           compare smoothed local times at the sample instants.  Smoothing
           hides at most one in-flight adjustment per process. *)
        let scenario =
          Csync_harness.Scenario.with_standard_faults
            { (Csync_harness.Scenario.default ~seed:9 p) with
              Csync_harness.Scenario.rounds = 10 }
        in
        let r = Csync_harness.Scenario.run scenario in
        let bound = Params.gamma p +. Params.adjustment_bound p in
        (* Evaluate smoothed local time for each process at one late real
           instant, using the recorded histories: smoothed = raw - residual
           where raw skew <= gamma already holds. *)
        let residuals =
          List.map
            (fun (_, records) ->
              let s = Smoothing.observe_history (Smoothing.of_params p) records in
              let last = List.nth records (List.length records - 1) in
              Smoothing.residual s
                ~phys:(last.Csync_core.Maintenance.update_phys +. 0.1))
            r.Csync_harness.Scenario.histories
        in
        let spread =
          List.fold_left Float.max (List.hd residuals) residuals
          -. List.fold_left Float.min (List.hd residuals) residuals
        in
        check_true "residual spread within adjustment bound"
          (spread <= Params.adjustment_bound p);
        check_true "combined bound sane"
          (r.Csync_harness.Scenario.max_skew +. spread <= bound));
    t "observe_history replays a maintenance run" (fun () ->
        let scenario =
          { (Csync_harness.Scenario.default ~seed:3 p) with Csync_harness.Scenario.rounds = 6 }
        in
        let r = Csync_harness.Scenario.run scenario in
        let _, records = List.hd r.Csync_harness.Scenario.histories in
        let s = Smoothing.observe_history (Smoothing.of_params p) records in
        let last = List.nth records (List.length records - 1) in
        (* One slew interval after the last update everything is settled. *)
        check_true "settles"
          (Smoothing.is_settled s
             ~phys:(last.Csync_core.Maintenance.update_phys +. (1.1 *. p.Params.big_p))));
  ]

let runtime_tests =
  [
    t "wall clock arithmetic" (fun () ->
        let c = Wall_clock.create ~epoch:100. ~offset:5. ~rate:2. () in
        check_float "of_wall" 25. (Wall_clock.of_wall c 110.);
        check_float "wall_of inverts" 110. (Wall_clock.wall_of c 25.);
        check_float "rate" 2. (Wall_clock.rate c);
        check_float "offset" 5. (Wall_clock.offset c);
        check_raises_invalid "rate" (fun () ->
            ignore (Wall_clock.create ~offset:0. ~rate:0. ())));
    t "now advances" (fun () ->
        let c = Wall_clock.create ~offset:0. ~rate:1. () in
        let a = Wall_clock.now c in
        let b = Wall_clock.now c in
        check_true "monotone-ish" (b >= a));
    Alcotest.test_case "live UDP nodes synchronize (2s, loopback)" `Slow
      (fun () ->
        let params =
          Csync_core.Params.auto ~n:4 ~f:1 ~rho:1e-4 ~delta:0.025 ~eps:0.0249
            ~big_p:0.45 ()
          |> Result.get_ok
        in
        let report =
          Csync_runtime.Live.run_maintenance ~base_port:17_530 ~params
            ~duration:2.0 ()
        in
        check_true "rounds happened"
          (List.for_all
             (fun n -> n.Csync_runtime.Live.rounds >= 2)
             report.Csync_runtime.Live.nodes);
        check_true "skew reduced"
          (report.Csync_runtime.Live.final_skew
           < report.Csync_runtime.Live.initial_skew /. 5.);
        check_true "within gamma"
          (report.Csync_runtime.Live.final_skew <= Csync_core.Params.gamma params));
  ]

let suite = smoothing_tests @ runtime_tests
