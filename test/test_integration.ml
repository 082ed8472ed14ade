(* End-to-end invariants: the paper's guarantees, checked across seeds and
   configurations.  These are the repository's acceptance tests - every
   theorem-level property must hold on every run. *)

module Scenario = Csync_harness.Scenario
module Params = Csync_core.Params
module Stats = Csync_metrics.Stats
open Helpers

let t name f = Alcotest.test_case name `Quick f

let p = params ()

let run_with_faults ~seed ~delay_kind ~clock_kind =
  Scenario.run
    {
      (Scenario.with_standard_faults (Scenario.default ~seed p)) with
      Scenario.rounds = 15;
      delay_kind;
      clock_kind;
    }

let gen_seed = QCheck2.Gen.int_range 0 10_000

let agreement_tests =
  [
    qcheck ~count:15 ~name:"Theorem 16: skew <= gamma across seeds" gen_seed
      (fun seed ->
        let r =
          run_with_faults ~seed ~delay_kind:Scenario.Extreme_delay
            ~clock_kind:Scenario.Drifting
        in
        r.Scenario.max_skew <= Params.gamma p);
    qcheck ~count:10 ~name:"Lemma 7: every |ADJ| within bound across seeds"
      gen_seed (fun seed ->
        let r =
          run_with_faults ~seed ~delay_kind:Scenario.Uniform_delay
            ~clock_kind:Scenario.Adversarial_drift
        in
        Stats.maximum r.Scenario.adjustments <= Params.adjustment_bound p);
    qcheck ~count:10 ~name:"Theorem 4(c): B^i <= beta across seeds" gen_seed
      (fun seed ->
        let r =
          run_with_faults ~seed ~delay_kind:Scenario.Extreme_delay
            ~clock_kind:Scenario.Adversarial_drift
        in
        List.for_all (fun (_, b) -> b <= p.Params.beta) r.Scenario.round_spread);
    qcheck ~count:10 ~name:"Theorem 19: validity envelope across seeds" gen_seed
      (fun seed ->
        let r =
          run_with_faults ~seed ~delay_kind:Scenario.Uniform_delay
            ~clock_kind:Scenario.Drifting
        in
        r.Scenario.validity = `Holds);
  ]

let variant_tests =
  [
    t "all averaging variants keep agreement under the standard cast" (fun () ->
        List.iter
          (fun averaging ->
            let r =
              Scenario.run
                {
                  (Scenario.with_standard_faults (Scenario.default ~seed:5 p)) with
                  Scenario.rounds = 12;
                  averaging;
                }
            in
            check_true
              (Csync_core.Averaging.name averaging)
              (r.Scenario.max_skew <= Params.gamma p))
          [ Csync_core.Averaging.midpoint; Csync_core.Averaging.mean;
            Csync_core.Averaging.median ]);
    t "k-exchange variant synchronizes" (fun () ->
        let r =
          Scenario.run
            { (Scenario.default ~seed:5 p) with Scenario.rounds = 8; exchanges = 3 }
        in
        check_true "skew small" (r.Scenario.steady_skew <= Params.gamma p));
    t "staggered broadcasts synchronize" (fun () ->
        let r =
          Scenario.run
            {
              (Scenario.default ~seed:5 p) with
              Scenario.rounds = 10;
              stagger = 4. *. p.Params.eps;
            }
        in
        check_true "skew small" (r.Scenario.steady_skew <= Params.gamma p));
    t "every fault strategy is survivable" (fun () ->
        let n = p.Params.n in
        List.iter
          (fun (label, spec) ->
            let r =
              Scenario.run
                {
                  (Scenario.default ~seed:6 p) with
                  Scenario.rounds = 10;
                  faults = [ (n - 1, spec); (n - 2, Scenario.Silent) ];
                }
            in
            check_true label (r.Scenario.max_skew <= Params.gamma p))
          [
            ("silent", Scenario.Silent);
            ("pull", Scenario.Pull (2. *. p.Params.beta));
            ("two-faced", Scenario.Two_faced { spread = p.Params.beta; split = 3 });
            ("adaptive", Scenario.Adaptive_two_faced { split = 3; faulty_from = 5 });
            ("jitter", Scenario.Jitter (3. *. p.Params.beta));
            ("flood", Scenario.Flood 4);
            ("lying", Scenario.Lying 10.);
            ( "late-two-faced",
              Scenario.Two_faced_late
                { offset_a = p.Params.eps; offset_b = p.Params.beta; split = 3 } );
          ]);
    t "reintegration rejoins within gamma" (fun () ->
        let module R = Csync_harness.Runner_reintegration in
        let r = R.run (R.default ~seed:8 p) in
        check_true "joined" (r.R.join_round <> None);
        check_true "post-join agreement" (r.R.post_join_skew <= Params.gamma p);
        check_true "woke far off" (r.R.wake_offset > 100. *. Params.gamma p));
    t "establishment reaches the maintenance regime" (fun () ->
        let module R = Csync_harness.Runner_establishment in
        let r =
          R.run
            (R.with_standard_faults
               { (R.default ~seed:8 ~initial_spread:50. p) with R.rounds = 25 })
        in
        check_true "converged to ~4 eps"
          (r.R.final_b
           <= 2.
              *. Csync_core.Bounds.establishment_fixpoint ~rho:p.Params.rho
                   ~delta:p.Params.delta ~eps:p.Params.eps));
  ]

let experiment_smoke_tests =
  (* Every registered experiment must run (quick mode) and produce
     well-formed, nonempty tables. *)
  List.map
    (fun e ->
      t (Printf.sprintf "experiment %s runs" e.Csync_harness.Experiment.id)
        (fun () ->
          let tables =
            snd
              (List.hd
                 (Csync_harness.Registry.run_list ~jobs:1 ~quick:true [ e ]))
          in
          check_true "has tables" (tables <> []);
          List.iter
            (fun tbl ->
              check_true "has rows" (Csync_metrics.Table.rows tbl <> []);
              (* Rendering must not raise. *)
              ignore (Format.asprintf "%a" Csync_metrics.Table.render tbl))
            tables))
    Csync_harness.Registry.all

let suite = agreement_tests @ variant_tests @ experiment_smoke_tests
