(* Tests for the experiment harness: sampling, environment construction,
   scenario determinism and the registry plumbing. *)

module Sampling = Csync_harness.Sampling
module Env = Csync_harness.Env
module Scenario = Csync_harness.Scenario
module Registry = Csync_harness.Registry
module Defaults = Csync_harness.Defaults
module Params = Csync_core.Params
module Mon = Csync_obs.Monitor
open Helpers

let t name f = Alcotest.test_case name `Quick f

let p = params ()

let sampling_tests =
  [
    t "grid endpoints and spacing" (fun () ->
        let g = Sampling.grid ~from_time:1. ~to_time:3. ~count:5 in
        Alcotest.(check (array (float 1e-12))) "grid" [| 1.; 1.5; 2.; 2.5; 3. |] g;
        check_raises_invalid "count" (fun () ->
            ignore (Sampling.grid ~from_time:0. ~to_time:1. ~count:1)));
    t "observe must be nonempty" (fun () ->
        let clocks = [| Csync_clock.Hardware_clock.create Csync_clock.Drift.perfect |] in
        let proc, _ = Csync_process.Fault.silent () in
        let cluster =
          Csync_process.Cluster.create ~clocks
            ~delay:(Csync_net.Delay.constant 1e-3) ~procs:[| proc |] ()
        in
        check_raises_invalid "empty" (fun () ->
            ignore (Sampling.run ~cluster ~observe:[] ~times:[| 1. |] ())));
    t "skew of identical silent clocks is zero" (fun () ->
        let clocks =
          Array.init 3 (fun _ -> Csync_clock.Hardware_clock.create Csync_clock.Drift.perfect)
        in
        let procs = Array.init 3 (fun _ -> fst (Csync_process.Fault.silent ())) in
        let cluster =
          Csync_process.Cluster.create ~clocks
            ~delay:(Csync_net.Delay.constant 1e-3) ~procs ()
        in
        let s =
          Sampling.run ~cluster ~observe:[ 0; 1; 2 ]
            ~times:(Sampling.grid ~from_time:0. ~to_time:10. ~count:11) ()
        in
        check_float "max skew" 0. (Sampling.max_skew s);
        check_float "steady" 0. (Sampling.steady_skew s));
    t "max_skew respects from_time" (fun () ->
        let clocks =
          [|
            Csync_clock.Hardware_clock.create ~offset:1. Csync_clock.Drift.perfect;
            Csync_clock.Hardware_clock.create Csync_clock.Drift.perfect;
          |]
        in
        (* One clock 1 s ahead: constant skew 1 everywhere; from_time only
           filters which samples count. *)
        let procs = Array.init 2 (fun _ -> fst (Csync_process.Fault.silent ())) in
        let cluster =
          Csync_process.Cluster.create ~clocks
            ~delay:(Csync_net.Delay.constant 1e-3) ~procs ()
        in
        let s =
          Sampling.run ~cluster ~observe:[ 0; 1 ]
            ~times:(Sampling.grid ~from_time:0. ~to_time:10. ~count:11) ()
        in
        check_float "all" 1. (Sampling.max_skew s);
        check_float "after end" 0. (Sampling.max_skew ~from_time:11. s));
  ]

let env_tests =
  [
    t "offsets span [0, spread] over nonfaulty pids" (fun () ->
        let env =
          Env.make ~params:p ~seed:1 ~clock_kind:Env.Drifting
            ~delay_kind:Env.Uniform_delay
            ~is_faulty:(fun pid -> pid >= 5)
            ~offset_spread:4e-4 ~rounds:10
        in
        check_float "tmin0" 0. (Env.tmin0 env);
        check_float "tmax0" 4e-4 (Env.tmax0 env);
        Array.iter
          (fun o -> check_true "within" (o >= 0. && o <= 4e-4))
          env.Env.offsets);
    t "clocks read T0 at their offset" (fun () ->
        let env =
          Env.make ~params:p ~seed:1 ~clock_kind:Env.Perfect
            ~delay_kind:Env.Constant_delay
            ~is_faulty:(fun _ -> false)
            ~offset_spread:4e-4 ~rounds:10
        in
        Array.iteri
          (fun pid clock ->
            check_float_tol 1e-12 "reads T0"
              p.Params.t0
              (Csync_clock.Hardware_clock.time clock env.Env.offsets.(pid)))
          env.Env.clocks);
    t "clocks are rho-bounded" (fun () ->
        let env =
          Env.make ~params:p ~seed:7 ~clock_kind:Env.Drifting
            ~delay_kind:Env.Uniform_delay
            ~is_faulty:(fun _ -> false)
            ~offset_spread:4e-4 ~rounds:10
        in
        Array.iter
          (fun c ->
            check_true "bounded"
              (Csync_clock.Hardware_clock.is_rho_bounded ~rho:p.Params.rho c))
          env.Env.clocks);
    t "every process faulty is rejected" (fun () ->
        check_raises_invalid "all faulty" (fun () ->
            ignore
              (Env.make ~params:p ~seed:1 ~clock_kind:Env.Perfect
                 ~delay_kind:Env.Constant_delay
                 ~is_faulty:(fun _ -> true)
                 ~offset_spread:4e-4 ~rounds:10)));
  ]

let scenario_tests =
  [
    t "same seed, same result" (fun () ->
        let s = { (Scenario.default ~seed:9 p) with Scenario.rounds = 8 } in
        let a = Scenario.run s and b = Scenario.run s in
        check_float "max skew equal" a.Scenario.max_skew b.Scenario.max_skew;
        check_int "messages equal" a.Scenario.messages b.Scenario.messages;
        Alcotest.(check (list (pair int (float 0.))))
          "round spreads equal" a.Scenario.round_spread b.Scenario.round_spread);
    t "different seeds differ" (fun () ->
        let r1 = Scenario.run { (Scenario.default ~seed:1 p) with Scenario.rounds = 6 } in
        let r2 = Scenario.run { (Scenario.default ~seed:2 p) with Scenario.rounds = 6 } in
        check_true "differ" (r1.Scenario.max_skew <> r2.Scenario.max_skew));
    t "validates fault pids and offset spread" (fun () ->
        check_raises_invalid "pid" (fun () ->
            ignore
              (Scenario.run
                 { (Scenario.default p) with Scenario.faults = [ (99, Scenario.Silent) ] }));
        check_raises_invalid "spread" (fun () ->
            ignore
              (Scenario.run
                 { (Scenario.default p) with Scenario.offset_spread = 1. })));
    t "standard faults install exactly f attackers" (fun () ->
        let s = Scenario.with_standard_faults (Scenario.default p) in
        check_int "f faults" p.Params.f (List.length s.Scenario.faults);
        let r = Scenario.run { s with Scenario.rounds = 6 } in
        check_int "n - f observed" (p.Params.n - p.Params.f)
          (List.length r.Scenario.nonfaulty));
    t "round spreads stay within beta" (fun () ->
        (* The staggered run broadcasts pid * sigma after each round start;
           B^i measures the round starts, not the broadcasts. *)
        List.iter
          (fun s ->
            let r = Scenario.run s in
            check_true "rounds measured" (List.length r.Scenario.round_spread >= 8);
            List.iter
              (fun (i, b) ->
                check_true
                  (Printf.sprintf "stagger %g: B^%d = %g <= beta"
                     s.Scenario.stagger i b)
                  (b <= p.Params.beta))
              r.Scenario.round_spread)
          [
            { (Scenario.with_standard_faults (Scenario.default ~seed:4 p)) with
              Scenario.rounds = 10 };
            { (Scenario.default ~seed:42 p) with
              Scenario.stagger = 4. *. p.Params.eps;
              rounds = 12 };
          ]);
    t "a check-free monitor records every message copy" (fun () ->
        let mon = Mon.create ~checks:[] () in
        Mon.install mon;
        let r =
          Fun.protect ~finally:Mon.clear_installed (fun () ->
              Scenario.run
                { (Scenario.default ~seed:4 p) with Scenario.rounds = 4 })
        in
        let copies =
          Mon.Prov.recent mon ~below:r.Scenario.messages
            r.Scenario.messages
        in
        check_int "one copy per send" r.Scenario.messages (List.length copies);
        check_int "no checks" 0 (Mon.checks_performed mon);
        (* copies are minted in send order *)
        let times =
          List.map (fun (e : Mon.Prov.entry) -> e.sent) copies
        in
        check_true "ordered" (List.sort Float.compare times = times));
    t "message count matches rounds (honest run)" (fun () ->
        let r = Scenario.run { (Scenario.default ~seed:4 p) with Scenario.rounds = 6 } in
        (* Each process broadcasts n messages per round; rounds+slack. *)
        let per_round = p.Params.n * p.Params.n in
        check_true "plausible volume"
          (r.Scenario.messages >= 6 * per_round
           && r.Scenario.messages <= 10 * per_round));
  ]

let registry_tests =
  [
    t "sixteen experiments, unique ids, E-order" (fun () ->
        check_int "count" 16 (List.length Registry.all);
        let ids = List.map (fun e -> e.Csync_harness.Experiment.id) Registry.all in
        check_int "unique" 16 (List.length (List.sort_uniq String.compare ids));
        check_true "E1 first" (List.hd ids = "E1"));
    t "find is case-insensitive" (fun () ->
        check_true "e10" (Registry.find "e10" <> None);
        check_true "E3" (Registry.find "E3" <> None);
        check_true "unknown" (Registry.find "E99" = None));
    t "defaults construct valid parameter sets" (fun () ->
        let p = Defaults.base () in
        check_true "checked" (Params.check p = []);
        let w = Defaults.wide_beta () in
        check_true "wide checked" (Params.check w = []));
  ]

let pool_tests =
  let module Pool = Csync_harness.Pool in
  [
    t "Pool.init returns results in index order" (fun () ->
        let r = Pool.init ~jobs:4 100 (fun i -> i * i) in
        check_true "values" (Array.for_all Fun.id (Array.mapi (fun i v -> v = i * i) r)));
    t "Pool.init handles jobs > n and n = 0" (fun () ->
        check_int "short" 3 (Array.length (Pool.init ~jobs:64 3 Fun.id));
        check_int "empty" 0 (Array.length (Pool.init ~jobs:4 0 Fun.id));
        check_raises_invalid "jobs" (fun () -> ignore (Pool.init ~jobs:0 1 Fun.id));
        check_raises_invalid "negative n" (fun () ->
            ignore (Pool.init ~jobs:1 (-1) Fun.id)));
    t "Pool.init re-raises a task exception" (fun () ->
        match Pool.init ~jobs:4 8 (fun i -> if i = 5 then failwith "boom" else i) with
        | _ -> Alcotest.fail "expected exception"
        | exception Failure msg -> check_true "message" (msg = "boom"));
    t "CSYNC_JOBS overrides default_jobs" (fun () ->
        Unix.putenv "CSYNC_JOBS" "3";
        let v = Pool.default_jobs () in
        Unix.putenv "CSYNC_JOBS" "";
        check_int "env" 3 v);
  ]

let determinism_tests =
  [
    t "registry output identical at 1 and 4 workers" (fun () ->
        (* The tentpole's contract: the pool only changes wall-clock time,
           never a byte of any table. *)
        let render jobs =
          Format.asprintf "%a"
            (fun ppf () -> Registry.render_all ~jobs ppf ~quick:true)
            ()
        in
        let one = render 1 in
        check_true "nonempty" (String.length one > 0);
        Alcotest.(check string) "jobs=4" one (render 4);
        Alcotest.(check string) "jobs=13" one (render 13));
    t "run_list slices tables per experiment" (fun () ->
        let exps =
          List.filter
            (fun e ->
              List.mem e.Csync_harness.Experiment.id [ "E1"; "E3"; "E5" ])
            Registry.all
        in
        let results = Registry.run_list ~jobs:4 ~quick:true exps in
        check_int "three experiments" 3 (List.length results);
        List.iter2
          (fun e (e', tables) ->
            check_true "same experiment"
              (e.Csync_harness.Experiment.id = e'.Csync_harness.Experiment.id);
            check_true "has tables" (tables <> []))
          exps results);
  ]

(* E2 runs E1's (eps, rho, P) sweep.  Each configuration must be its own
   labelled cell: run under one label, every later cell's delays were
   binned into the first cell's [net.delay] window, so they fell into its
   underflow and overflow. *)
let e2_tests =
  [
    t "E2 cells bin delays in own window" (fun () ->
        let module Obs = Csync_obs.Registry in
        let module Record = Csync_obs.Record in
        let reg = Obs.create () in
        Obs.install reg;
        Fun.protect ~finally:Obs.clear_installed (fun () ->
            ignore
              (Registry.run_list ~jobs:1 ~quick:false
                 [ Option.get (Registry.find "E2") ]));
        let hists =
          List.filter_map
            (function Record.Hist (name, h) -> Some (name, h) | _ -> None)
            (Obs.records reg)
        in
        List.iter
          (fun (eps, rho, big_p) ->
            let label = Printf.sprintf "E2/eps=%g,rho=%g,P=%g" eps rho big_p in
            let params = Defaults.base ~eps ~rho ~big_p () in
            let lo = params.Params.delta -. params.Params.eps
            and hi = params.Params.delta +. params.Params.eps in
            match List.assoc_opt (label ^ "/net.delay") hists with
            | None -> Alcotest.failf "%s: no net.delay histogram" label
            | Some h ->
              Alcotest.(check (float 0.)) (label ^ " lo") lo h.Record.lo;
              Alcotest.(check (float 0.)) (label ^ " hi") hi h.Record.hi;
              check_true (label ^ " delays recorded") (h.Record.total > 0);
              check_int (label ^ " underflow") 0 h.Record.underflow;
              check_int (label ^ " overflow") 0 h.Record.overflow)
          (Csync_harness.Exp_agreement.sweep ~quick:false));
  ]

(* Every experiment is labelled cells, so each run of a sweep records under
   its own label.  Runs laid end to end under one label splice into one
   series whose xs jump back at every run boundary. *)
let one_run_per_label_tests =
  [
    t "series never step back in time" (fun () ->
        let module Obs = Csync_obs.Registry in
        let module Record = Csync_obs.Record in
        let reg = Obs.create () in
        Obs.install reg;
        Fun.protect ~finally:Obs.clear_installed (fun () ->
            ignore (Registry.run_list ~jobs:1 ~quick:true Registry.all));
        let steps_back xs =
          let rec go i =
            i + 1 < Array.length xs && (xs.(i + 1) < xs.(i) || go (i + 1))
          in
          go 0
        in
        let spliced =
          List.filter_map
            (function
              | Record.Series (name, xs, _) when steps_back xs -> Some name
              | _ -> None)
            (Obs.records reg)
        in
        Alcotest.(check (list string)) "series whose xs decrease" [] spliced);
  ]

(* The bench report's JSON must carry what it measured: every kernel value
   comes back from the written file bit for bit. *)
let bench_json_tests =
  let module B = Bench_report in
  [
    t "bench JSON reads back bit for bit" (fun () ->
        let report =
          {
            B.mode = "quick";
            jobs = 2;
            parallel_available = true;
            suite =
              Some
                {
                  B.wall_s = 0.1234567890123456;
                  wall_s_jobs1 = 1. /. 3.;
                  speedup_vs_jobs1 = Float.pi;
                  tables_identical = true;
                };
            kernels =
              [
                { B.name = "averaging/mid-reduce-n7"; ns_per_op = 11.7065423 };
                { B.name = "engine/\"quoted\"\\name"; ns_per_op = 4.9e-324 };
                { B.name = "simulation/round"; ns_per_op = 41234567.891 };
                { B.name = "obs/not-measured"; ns_per_op = Float.nan };
              ];
            alloc = None;
          }
        in
        let file = Filename.temp_file "csync-bench" ".json" in
        B.write_json report file;
        let loaded = B.load_baseline file in
        Sys.remove file;
        match loaded with
        | Error e -> Alcotest.fail e
        | Ok b ->
          Alcotest.(check (option string)) "mode" (Some "quick") b.B.b_mode;
          let bits = List.map (fun (n, v) -> (n, Int64.bits_of_float v)) in
          check_true "suite wall_s"
            (Option.map Int64.bits_of_float b.B.b_suite_wall_s
            = Some (Int64.bits_of_float 0.1234567890123456));
          check_true "kernels, finite ones bit for bit"
            (bits b.B.b_kernels
            = bits
                (List.filter_map
                   (fun k ->
                     if Float.is_finite k.B.ns_per_op then
                       Some (k.B.name, k.B.ns_per_op)
                     else None)
                   report.B.kernels)));
  ]

let suite =
  sampling_tests @ env_tests @ scenario_tests @ registry_tests @ pool_tests
  @ determinism_tests @ e2_tests @ bench_json_tests @ one_run_per_label_tests
