(* Shared benchmark engine behind both `bench/main.exe` and `csync bench`.

   Two parts:

   - the experiment suite as a timed artifact: render every registered
     experiment through the pool, wall-clock it, optionally rerun at one
     worker to measure the parallel speedup and check the tables are
     byte-identical;

   - bechamel micro-benchmarks of the computational kernels (fault-tolerant
     averaging, the event engine, a full simulated round), reported as
     ns per operation.

   The whole report serializes to the BENCH_*.json shape so perf is a
   tracked artifact rather than a number in a terminal scrollback. *)

open Bechamel
open Toolkit

type kernel = { name : string; ns_per_op : float }

type suite = {
  wall_s : float;  (* full render at [jobs] workers *)
  wall_s_jobs1 : float;  (* same render at one worker; = wall_s if not rerun *)
  speedup_vs_jobs1 : float;
  tables_identical : bool;  (* jobs-N output byte-equal to jobs-1 output *)
}

type alloc = {
  engine_words_per_event : float;
  delivery_words_per_event : float;
  soa_words_per_event : float;
}

type t = {
  mode : string;  (* "quick" or "full" *)
  jobs : int;
  parallel_available : bool;
  suite : suite option;
  kernels : kernel list;
  alloc : alloc option;
}

(* ---------- experiment suite ---------- *)

let render_suite ~jobs ~quick =
  let buf = Buffer.create (1 lsl 16) in
  let ppf = Format.formatter_of_buffer buf in
  Csync_harness.Registry.render_all ~jobs ppf ~quick;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

let run_suite ~jobs ~quick ~compare_jobs1 =
  let wall_s, out = timed (fun () -> render_suite ~jobs ~quick) in
  let suite =
    if compare_jobs1 && jobs <> 1 then begin
      let wall_s_jobs1, out1 = timed (fun () -> render_suite ~jobs:1 ~quick) in
      {
        wall_s;
        wall_s_jobs1;
        speedup_vs_jobs1 = wall_s_jobs1 /. wall_s;
        tables_identical = String.equal out out1;
      }
    end
    else
      {
        wall_s;
        wall_s_jobs1 = wall_s;
        speedup_vs_jobs1 = 1.;
        tables_identical = true;
      }
  in
  (suite, out)

(* ---------- micro-benchmarks ---------- *)

let bench_multiset =
  let rng = Csync_sim.Rng.create 1 in
  let data n =
    Csync_multiset.of_array (Array.init n (fun _ -> Csync_sim.Rng.float rng))
  in
  let small = data 7 and medium = data 100 and large = data 10_000 in
  let scratch = Csync_multiset.Scratch.create () in
  let raw = Csync_multiset.to_array large in
  Test.make_grouped ~name:"averaging"
    [
      Test.make ~name:"mid-reduce-n7"
        (Staged.stage (fun () ->
             Csync_multiset.mid (Csync_multiset.reduce ~f:2 small)));
      Test.make ~name:"mid-reduce-n100"
        (Staged.stage (fun () ->
             Csync_multiset.mid (Csync_multiset.reduce ~f:33 medium)));
      Test.make ~name:"mid-reduce-n10k"
        (Staged.stage (fun () ->
             Csync_multiset.mid (Csync_multiset.reduce ~f:3333 large)));
      Test.make ~name:"fused-mid-reduced-n7"
        (Staged.stage (fun () -> Csync_multiset.mid_reduced ~f:2 small));
      Test.make ~name:"fused-mid-reduced-n100"
        (Staged.stage (fun () -> Csync_multiset.mid_reduced ~f:33 medium));
      Test.make ~name:"fused-mid-reduced-n10k"
        (Staged.stage (fun () -> Csync_multiset.mid_reduced ~f:3333 large));
      Test.make ~name:"sort-n10k"
        (Staged.stage (fun () -> ignore (Csync_multiset.of_array raw)));
      Test.make ~name:"scratch-sort-n10k"
        (Staged.stage (fun () ->
             ignore (Csync_multiset.Scratch.sorted_of_array scratch raw)));
    ]

let bench_engine =
  Test.make_grouped ~name:"engine"
    [
      Test.make ~name:"schedule-pop-1k"
        (Staged.stage (fun () ->
             let e = Csync_sim.Engine.create () in
             for i = 0 to 999 do
               Csync_sim.Engine.schedule e ~time:(float_of_int (i mod 97)) i
             done;
             let count = ref 0 in
             ignore
               (Csync_sim.Engine.drain e
                  ~handler:(fun _ _ -> incr count)
                  ~max_events:10_000)));
      (* One million events through the timing wheel in one op: the
         horizon-crossing, epoch-advancing regime the 1k kernel never
         reaches.  Times spread over ~1000 bucket widths so the run
         exercises overflow promotion, not just in-window inserts. *)
      Test.make ~name:"schedule-pop-1M"
        (Staged.stage (fun () ->
             let e = Csync_sim.Engine.create ~expected:1_000_000 () in
             for i = 0 to 999_999 do
               Csync_sim.Engine.schedule e
                 ~time:(float_of_int ((i * 7919) mod 100003) *. 2.5e-3)
                 i
             done;
             ignore
               (Csync_sim.Engine.drain e
                  ~handler:(fun _ _ -> ())
                  ~max_events:1_000_001)));
      (* The 1k kernel as an instrumented run sees it: with a registry
         installed at creation, every schedule also reads the queue's
         depth and wheel occupancy into the high-water gauges. *)
      (let reg = Csync_obs.Registry.create () in
       Test.make ~name:"schedule-pop-1k-registry"
         (Staged.stage (fun () ->
              Csync_obs.Registry.install reg;
              let e =
                Fun.protect ~finally:Csync_obs.Registry.clear_installed
                  (fun () -> Csync_sim.Engine.create ())
              in
              for i = 0 to 999 do
                Csync_sim.Engine.schedule e ~time:(float_of_int (i mod 97)) i
              done;
              let count = ref 0 in
              ignore
                (Csync_sim.Engine.drain e
                   ~handler:(fun _ _ -> incr count)
                   ~max_events:10_000))));
      (let h = Csync_sim.Heap.create ~cmp:Int.compare in
       Test.make ~name:"heap-clear-refill-1k"
         (Staged.stage (fun () ->
              Csync_sim.Heap.clear h;
              for i = 0 to 999 do
                Csync_sim.Heap.push h ((i * 7919) mod 1000)
              done;
              while not (Csync_sim.Heap.is_empty h) do
                ignore (Csync_sim.Heap.pop_exn h)
              done)));
    ]

let bench_round =
  let params = Csync_harness.Defaults.base () in
  let run_rounds ~exchanges =
    let scenario =
      {
        (Csync_harness.Scenario.default params) with
        Csync_harness.Scenario.rounds = 5;
        samples_per_round = 2;
        exchanges;
      }
    in
    ignore (Csync_harness.Scenario.run scenario)
  in
  (* The scale gate: one synchronization round of the struct-of-arrays
     model at n = 10^5 on a degree-8 ring - 900k estimates filled into
     rows and swept.  The model persists across iterations (each op
     simulates the next round); sharding follows the ambient job count. *)
  let scale_model =
    lazy (Csync_process.Soa.create ~n:100_000 ~degree:8 ~f:2 ~seed:1 ())
  in
  (* The same event volume routed through an explicit sparse topology in
     gradient mode: a degree-8 circulant expander at n = 10^5, neighbor
     averaging instead of the full midpoint jump.  Holds the line that
     graph-indirected adjacency and the gradient correction stay within
     noise of the hardcoded-ring path. *)
  let gradient_model =
    lazy
      (let graph =
         Csync_topo.Graph.expander ~n:100_000 ~degree:8 ~seed:5
       in
       Csync_process.Soa.create ~graph ~f:2 ~seed:1
         ~mode:(Csync_process.Soa.Gradient_avg 1.0) ~n:100_000 ())
  in
  Test.make_grouped ~name:"simulation"
    [
      Test.make ~name:"five-rounds-n7"
        (Staged.stage (fun () -> run_rounds ~exchanges:1));
      Test.make ~name:"five-rounds-n7-k3"
        (Staged.stage (fun () -> run_rounds ~exchanges:3));
      Test.make ~name:"one-round-n100k"
        (Staged.stage (fun () ->
             ignore (Csync_harness.Scale.round (Lazy.force scale_model))));
      Test.make ~name:"gradient-round-n100k"
        (Staged.stage (fun () ->
             ignore (Csync_harness.Scale.round (Lazy.force gradient_model))));
    ]

(* The model checker's exploration loop, at a scope small enough to finish
   in milliseconds: 2 nonfaulty + 1 Byzantine, one round, two-point delay
   lattice.  The bound is slackened so no violation stops exploration early
   and the benchmark always measures the full state space. *)
let check_scope =
  lazy
    {
      (Csync_check.Scope.preset_exn "divergence-n2f1") with
      Csync_check.Scope.depth = 1;
      gamma_factor = 1000.;
    }

let check_stats =
  lazy
    (Csync_check.Explorer.run ~jobs:1 (Lazy.force check_scope))
      .Csync_check.Explorer.stats

let bench_check =
  Test.make_grouped ~name:"check"
    [
      Test.make ~name:"explore-n2f1-depth1"
        (Staged.stage (fun () ->
             ignore
               (Csync_check.Explorer.run ~jobs:1 (Lazy.force check_scope))));
    ]

(* The fleet collector's steady-state merge cost: 10k records arriving as
   8 interleaved node streams (10 btrace segments each), decoded through
   per-node feeds and canonically merged.  Frames are prebuilt so the
   kernel times decode + merge, not encoding. *)
let collect_frames =
  lazy
    (let streams = 8 and segments = 10 and per_segment = 125 in
     (* 8 * 10 * 125 = 10_000 records *)
     let b = Buffer.create 4096 in
     let frames = ref [] in
     for seq = 0 to segments - 1 do
       for src = 0 to streams - 1 do
         Buffer.clear b;
         let w = Csync_obs.Btrace.writer_fn (Buffer.add_string b) in
         for i = 0 to per_segment - 1 do
           let k = (seq * per_segment) + i in
           Csync_obs.Btrace.write w
             (if k land 1 = 0 then Csync_obs.Record.Counter ("scale.events", k)
              else
                Csync_obs.Record.Gauge
                  ("run.skew", float_of_int ((src * 131) + k) *. 1e-6))
         done;
         Csync_obs.Btrace.close_writer w;
         frames := (src, seq, (seq * 1000) + src, Buffer.contents b) :: !frames
       done
     done;
     List.rev !frames)

(* Per-link delay names at n = 64, the shape of a full E5 trace's
   [net.delay.i->j] hists: 4096 distinct bases behind one label, so the
   encode cost is dominated by string interning. *)
let delay_name_records =
  lazy
    (List.init 4096 (fun k ->
         Csync_obs.Record.Counter
           (Printf.sprintf "E5/net.delay.%d->%d" (k / 64) (k mod 64), k)))

(* One monitored run of the standard Byzantine cast at n = 16, f = 5 over
   10 rounds (the shape of the traced benchmark workload), kept as its
   registry and monitor.  The capture kernel times what `csync trace`
   pays after the run: dump, decode into records, a csync-btrace/1
   encode and a decode of the bytes. *)
let traced_capture =
  lazy
    (let module Scenario = Csync_harness.Scenario in
     let params = Csync_harness.Defaults.base ~n:16 ~f:5 () in
     let scenario =
       {
         (Scenario.with_standard_faults (Scenario.default ~seed:1 params)) with
         Scenario.rounds = 10;
         samples_per_round = 4;
       }
     in
     let reg = Csync_obs.Registry.create () in
     let mon = Csync_obs.Monitor.create () in
     Csync_obs.Registry.install reg;
     Csync_obs.Monitor.install mon;
     Fun.protect
       ~finally:(fun () ->
         Csync_obs.Registry.clear_installed ();
         Csync_obs.Monitor.clear_installed ())
       (fun () -> ignore (Scenario.run scenario));
     (reg, mon))

let capture_traced () =
  let reg, mon = Lazy.force traced_capture in
  let records =
    List.map
      (fun j ->
        match Csync_obs.Record.of_json j with
        | Ok r -> r
        | Error e -> failwith ("trace-capture-traced: " ^ e))
      (Csync_obs.Registry.dump reg @ Csync_obs.Monitor.dump mon)
  in
  let b = Buffer.create (1 lsl 16) in
  let w = Csync_obs.Btrace.writer_fn (Buffer.add_string b) in
  List.iter (Csync_obs.Btrace.write w) records;
  Csync_obs.Btrace.close_writer w;
  let fd = Csync_obs.Btrace.feed () in
  Csync_obs.Btrace.feed_bytes fd (Buffer.contents b);
  let rec drain () =
    match Csync_obs.Btrace.feed_next fd with
    | `Record _ -> drain ()
    | `Await -> ()
    | `Error e -> failwith ("trace-capture-traced: " ^ e)
  in
  drain ()

let bench_obs =
  (* The telemetry invariant in numbers: a counter increment through a
     handle minted from the disabled registry (what every untraced
     simulation pays at each instrumentation point, pool workers
     included) vs the enabled plain-field path.  The monitor kernels hold the same line for the online
     theorem checks: an unmonitored run pays one branch per check site. *)
  let off = Csync_obs.Registry.counter Csync_obs.Registry.none "bench.c" in
  let on_reg = Csync_obs.Registry.create () in
  let on = Csync_obs.Registry.counter on_reg "bench.c" in
  let g_off = Csync_obs.Registry.gauge Csync_obs.Registry.none "bench.g" in
  let mon_off =
    Csync_obs.Monitor.Agreement.handle Csync_obs.Monitor.none ~gamma:1.0
      ~from_time:0.
  in
  let mon_on =
    Csync_obs.Monitor.Agreement.handle
      (Csync_obs.Monitor.create ())
      ~gamma:1.0 ~from_time:0.
  in
  (* Same line for the profiled path: a phase-span wrap on the disabled
     registry is what every untraced Scale round pays per phase. *)
  let prof_off = Csync_obs.Profile.create Csync_obs.Registry.none in
  Test.make_grouped ~name:"obs"
    [
      Test.make ~name:"counter-incr-disabled"
        (Staged.stage (fun () -> Csync_obs.Registry.Counter.incr off));
      Test.make ~name:"counter-incr-enabled"
        (Staged.stage (fun () -> Csync_obs.Registry.Counter.incr on));
      Test.make ~name:"gauge-observe-disabled"
        (Staged.stage (fun () ->
             Csync_obs.Registry.Gauge.observe_max g_off 1.0));
      Test.make ~name:"phase-span-disabled"
        (Staged.stage (fun () ->
             Csync_obs.Profile.time prof_off Csync_obs.Profile.Apply ignore));
      Test.make ~name:"monitor-check-disabled"
        (Staged.stage (fun () ->
             Csync_obs.Monitor.Agreement.check mon_off ~time:1.0 ~skew:0.5));
      Test.make ~name:"monitor-check-enabled"
        (Staged.stage (fun () ->
             Csync_obs.Monitor.Agreement.check mon_on ~time:1.0 ~skew:0.5));
      Test.make ~name:"btrace-encode-4k-names"
        (Staged.stage (fun () ->
             let b = Buffer.create (1 lsl 16) in
             let w = Csync_obs.Btrace.writer_fn (Buffer.add_string b) in
             List.iter (Csync_obs.Btrace.write w)
               (Lazy.force delay_name_records);
             Csync_obs.Btrace.close_writer w));
      Test.make ~name:"trace-capture-traced" (Staged.stage capture_traced);
      Test.make ~name:"collect-merge-10k"
        (Staged.stage (fun () ->
             let t = Csync_obs.Collect.create () in
             List.iter
               (fun (src, seq, ts_ns, payload) ->
                 Csync_obs.Collect.frame t ~src ~seq ~ts_ns payload)
               (Lazy.force collect_frames);
             ignore (Csync_obs.Collect.merged t)));
    ]

(* The stabilizing recovery wrapper's pass-through cost: [Stabilize.probe]
   on a healthy state with detection off and no schedule is the guard every
   wrapped interrupt pays before delegating to the maintenance handler -
   the acceptance line holds it within ~10 ns/op. *)
let bench_stabilize =
  let params = Csync_harness.Defaults.base () in
  let cfg =
    Csync_core.Stabilize.config ~detect:false
      (Csync_core.Maintenance.config params)
  in
  let st = Csync_core.Stabilize.initial_state cfg ~self:0 in
  Test.make_grouped ~name:"stabilize"
    [
      Test.make ~name:"wrapper-disabled"
        (Staged.stage (fun () ->
             ignore (Csync_core.Stabilize.probe cfg ~phys:1.0 st)));
    ]

(* ---------- allocation counting ----------

   The allocation audit in numbers: minor-heap words allocated per
   simulated event on each layer's steady-state path, measured directly
   with [Gc.minor_words] after a warm-up pass (so slabs and wheels are at
   their high-water marks and the numbers reflect the recycling regime,
   not first-touch growth).  Large arrays land in the major heap and are
   excluded by construction - these figures are the per-event churn. *)

let words_per_event ~events f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int events

(* Raw engine: batches of adds drained through the fused iterator.  The
   only unavoidable cost is the float boxing at the callback boundary. *)
let engine_alloc () =
  let batch = 1024 and batches = 64 in
  let q = Csync_sim.Event_queue.create ~expected:batch () in
  let run () =
    for b = 0 to batches - 1 do
      let base = float_of_int b in
      for i = 0 to batch - 1 do
        Csync_sim.Event_queue.add q
          ~time:(base +. (float_of_int i /. float_of_int batch))
          ~prio:0 i
      done;
      ignore
        (Csync_sim.Event_queue.iter_pop_until q ~until:Float.infinity
           ~f:(fun _ _ -> ()))
    done
  in
  run ();
  words_per_event ~events:(batch * batches) run

(* Full delivery path: a ring of stateless ping-pong automatons keeps a
   constant number of messages in flight, so every delivery reuses a slab
   record.  What remains per event is the handler's action list and the
   boxing at closure boundaries - nothing proportional to the queue. *)
let delivery_alloc () =
  let module Cluster = Csync_process.Cluster in
  let module Automaton = Csync_process.Automaton in
  let n = 8 in
  let clocks =
    Array.init n (fun _ ->
        Csync_clock.Hardware_clock.create Csync_clock.Drift.perfect)
  in
  let delay = Csync_net.Delay.constant 0.01 in
  let auto =
    Automaton.stateless ~name:"ping-pong" (fun ~self ~phys:_ -> function
      | Automaton.Start -> [ Automaton.Send ((self + 1) mod n, ()) ]
      | Automaton.Message (src, ()) -> [ Automaton.Send (src, ()) ]
      | Automaton.Timer _ -> [])
  in
  let procs = Array.init n (fun _ -> fst (Cluster.make_proc auto)) in
  let cluster = Cluster.create ~clocks ~delay ~procs () in
  for pid = 0 to n - 1 do
    Cluster.schedule_start cluster ~pid ~time:(0.001 *. float_of_int pid)
  done;
  let delivered = ref 0 in
  Cluster.add_delivery_hook cluster (fun _ _ _ -> incr delivered);
  Cluster.run_until cluster 5.;
  let start = !delivered in
  let words =
    words_per_event ~events:1 (fun () -> Cluster.run_until cluster 130.)
  in
  let events = !delivered - start in
  if events <= 0 then Float.nan else words /. float_of_int events

(* Struct-of-arrays round at n = 10^4: per-event churn of the sharded
   scale path - row fill, sweep and row checksum. *)
let soa_alloc () =
  let model = Csync_process.Soa.create ~n:10_000 ~degree:8 ~f:2 ~seed:1 () in
  let events, _ = Csync_harness.Scale.round ~jobs:1 model in
  words_per_event ~events (fun () ->
      ignore (Csync_harness.Scale.round ~jobs:1 model))

let measure_alloc () =
  {
    engine_words_per_event = engine_alloc ();
    delivery_words_per_event = delivery_alloc ();
    soa_words_per_event = soa_alloc ();
  }

let ns_per_op ols =
  match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan

let run_kernels ~quick =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let quota = Time.second (if quick then 0.25 else 0.5) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name o acc -> { name; ns_per_op = ns_per_op o } :: acc)
        results [])
    [ bench_multiset; bench_engine; bench_round; bench_check; bench_obs;
      bench_stabilize ]
  |> List.sort (fun a b -> String.compare a.name b.name)

let find_kernel t name =
  List.find_opt (fun k -> String.equal k.name name) t.kernels

(* Naive-over-fused ratio at n = 10k: the headline number for the O(1)
   mid_reduced cut. *)
let mid_reduced_speedup_n10k t =
  match
    ( find_kernel t "averaging/mid-reduce-n10k",
      find_kernel t "averaging/fused-mid-reduced-n10k" )
  with
  | Some naive, Some fused
    when Float.is_finite naive.ns_per_op
         && Float.is_finite fused.ns_per_op
         && fused.ns_per_op > 0. ->
    Some (naive.ns_per_op /. fused.ns_per_op)
  | _ -> None

(* Exploration throughput of the model checker on the benched scope:
   distinct canonical states discovered per second of exploration.  The
   scope is deterministic, so the state count is a constant and the only
   measured quantity is the kernel's wall time. *)
(* Disabled-path telemetry overhead per instrumentation point. *)
let telemetry_disabled_ns t =
  match find_kernel t "obs/counter-incr-disabled" with
  | Some k when Float.is_finite k.ns_per_op -> Some k.ns_per_op
  | _ -> None

(* Disabled-path monitor overhead per check site (one branch on a no-op
   handle); the acceptance line holds it within 2x of the telemetry
   no-op. *)
let monitor_disabled_ns t =
  match find_kernel t "obs/monitor-check-disabled" with
  | Some k when Float.is_finite k.ns_per_op -> Some k.ns_per_op
  | _ -> None

(* Disabled-path round-phase profiler overhead per wrapped phase (one
   branch plus the closure call on a disabled [Profile.time]). *)
let profile_disabled_ns t =
  match find_kernel t "obs/phase-span-disabled" with
  | Some k when Float.is_finite k.ns_per_op -> Some k.ns_per_op
  | _ -> None

(* Disabled-path recovery-wrapper overhead per interrupt (the [probe]
   guard on a healthy, schedule-free wrapper). *)
let stabilize_disabled_ns t =
  match find_kernel t "stabilize/wrapper-disabled" with
  | Some k when Float.is_finite k.ns_per_op -> Some k.ns_per_op
  | _ -> None

let check_states_per_sec t =
  match find_kernel t "check/explore-n2f1-depth1" with
  | Some k when Float.is_finite k.ns_per_op && k.ns_per_op > 0. ->
    let s = Lazy.force check_stats in
    Some
      (float_of_int s.Csync_check.Explorer.states /. (k.ns_per_op *. 1e-9))
  | _ -> None

(* ---------- report ---------- *)

let run ?(jobs = 0) ~quick ~compare_jobs1 () =
  let jobs = if jobs > 0 then jobs else Csync_harness.Pool.default_jobs () in
  let suite, out = run_suite ~jobs ~quick ~compare_jobs1 in
  let kernels = run_kernels ~quick in
  ( {
      mode = (if quick then "quick" else "full");
      jobs;
      parallel_available = Csync_harness.Pool.parallel_available;
      suite = Some suite;
      kernels;
      alloc = Some (measure_alloc ());
    },
    out )

let pp_kernels ppf kernels =
  List.iter
    (fun { name; ns_per_op } ->
      Format.fprintf ppf "  %-40s %12.1f ns/op@." name ns_per_op)
    kernels

let pp_summary ppf t =
  Format.fprintf ppf "mode=%s jobs=%d parallel=%b@." t.mode t.jobs
    t.parallel_available;
  (match t.suite with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "suite: %.2f s at %d jobs, %.2f s at 1 job (speedup %.2fx, tables %s)@."
      s.wall_s t.jobs s.wall_s_jobs1 s.speedup_vs_jobs1
      (if s.tables_identical then "identical" else "DIFFER"));
  (match mid_reduced_speedup_n10k t with
  | Some r -> Format.fprintf ppf "mid_reduced vs mid-o-reduce at n=10k: %.0fx@." r
  | None -> ());
  (match check_states_per_sec t with
  | Some r -> Format.fprintf ppf "model-checker exploration: %.0f states/s@." r
  | None -> ());
  (match telemetry_disabled_ns t with
  | Some r ->
    Format.fprintf ppf "telemetry disabled-path overhead: %.1f ns/op@." r
  | None -> ());
  (match monitor_disabled_ns t with
  | Some r ->
    Format.fprintf ppf "monitor disabled-path overhead: %.1f ns/op%s@." r
      (match telemetry_disabled_ns t with
      | Some tele when tele > 0. ->
        Printf.sprintf " (%.2fx the telemetry no-op)" (r /. tele)
      | _ -> "")
  | None -> ());
  (match profile_disabled_ns t with
  | Some r ->
    Format.fprintf ppf "phase-profiler disabled-path overhead: %.1f ns/op@." r
  | None -> ());
  (match stabilize_disabled_ns t with
  | Some r ->
    Format.fprintf ppf "stabilize wrapper disabled-path overhead: %.1f ns/op@." r
  | None -> ());
  match t.alloc with
  | None -> ()
  | Some a ->
    Format.fprintf ppf
      "alloc (minor words/event): engine %.1f, delivery %.1f, soa round %.1f@."
      a.engine_words_per_event a.delivery_words_per_event
      a.soa_words_per_event

(* Hand-rolled JSON: the container has no JSON library and the shape is
   small and fixed. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let to_json t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"csync-bench/1\",\n";
  add "  \"mode\": %S,\n" t.mode;
  add "  \"jobs\": %d,\n" t.jobs;
  add "  \"parallel_available\": %b,\n" t.parallel_available;
  (match t.suite with
  | None -> add "  \"suite\": null,\n"
  | Some s ->
    add "  \"suite\": {\n";
    add "    \"wall_s\": %s,\n" (json_float s.wall_s);
    add "    \"wall_s_jobs1\": %s,\n" (json_float s.wall_s_jobs1);
    add "    \"speedup_vs_jobs1\": %s,\n" (json_float s.speedup_vs_jobs1);
    add "    \"tables_identical\": %b\n" s.tables_identical;
    add "  },\n");
  (match t.alloc with
  | None -> add "  \"alloc_words_per_event\": null,\n"
  | Some a ->
    add "  \"alloc_words_per_event\": {\n";
    add "    \"engine\": %s,\n" (json_float a.engine_words_per_event);
    add "    \"delivery\": %s,\n" (json_float a.delivery_words_per_event);
    add "    \"soa_round\": %s\n" (json_float a.soa_words_per_event);
    add "  },\n");
  add "  \"kernels_ns_per_op\": {\n";
  let rec kernels = function
    | [] -> ()
    | [ { name; ns_per_op } ] ->
      add "    \"%s\": %s\n" (json_escape name) (json_float ns_per_op)
    | { name; ns_per_op } :: rest ->
      add "    \"%s\": %s,\n" (json_escape name) (json_float ns_per_op);
      kernels rest
  in
  kernels t.kernels;
  add "  },\n";
  add "  \"derived\": {\n";
  add "    \"mid_reduced_speedup_n10k\": %s,\n"
    (match mid_reduced_speedup_n10k t with
    | Some r -> json_float r
    | None -> "null");
  add "    \"check_states_per_sec\": %s,\n"
    (match check_states_per_sec t with
    | Some r -> json_float r
    | None -> "null");
  add "    \"telemetry_disabled_ns\": %s,\n"
    (match telemetry_disabled_ns t with
    | Some r -> json_float r
    | None -> "null");
  add "    \"monitor_disabled_ns\": %s,\n"
    (match monitor_disabled_ns t with
    | Some r -> json_float r
    | None -> "null");
  add "    \"profile_disabled_ns\": %s,\n"
    (match profile_disabled_ns t with
    | Some r -> json_float r
    | None -> "null");
  add "    \"stabilize_disabled_ns\": %s\n"
    (match stabilize_disabled_ns t with
    | Some r -> json_float r
    | None -> "null");
  add "  }\n";
  add "}\n";
  Buffer.contents buf

let write_json t file =
  let oc = open_out file in
  output_string oc (to_json t);
  close_out oc

(* ---------- baseline comparison ---------- *)

(* A previously written BENCH_*.json, reloaded for delta reporting.  Only
   the fields the comparison needs are kept; kernels the baseline lacks
   (added since it was captured) or no longer produces are reported as
   coverage rather than errors, so old baselines stay usable. *)
type baseline = {
  b_mode : string option;
  b_suite_wall_s : float option;
  b_kernels : (string * float) list;
}

let load_baseline file =
  let module Json = Csync_obs.Json in
  match
    try
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Ok s
    with Sys_error e -> Error e
  with
  | Error e -> Error e
  | Ok contents ->
  match Json.of_string contents with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok j ->
    let b_mode = Option.bind (Json.member "mode" j) Json.to_str in
    let b_suite_wall_s =
      Option.bind (Json.member "suite" j) (fun s ->
          Option.bind (Json.member "wall_s" s) Json.to_float)
    in
    let b_kernels =
      match Json.member "kernels_ns_per_op" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, v) -> Option.map (fun ns -> (name, ns)) (Json.to_float v))
          fields
      | _ -> []
    in
    if b_kernels = [] then
      Error (Printf.sprintf "%s: no kernels_ns_per_op object" file)
    else Ok { b_mode; b_suite_wall_s; b_kernels }

let pp_baseline_deltas ppf ~file t b =
  Format.fprintf ppf "@.######## Deltas vs baseline %s%s@." file
    (match b.b_mode with
    | Some m when m <> t.mode ->
      Printf.sprintf " (MODE MISMATCH: baseline %s, this run %s)" m t.mode
    | _ -> "");
  (match (t.suite, b.b_suite_wall_s) with
  | Some s, Some w when w > 0. ->
    Format.fprintf ppf "suite wall: %.3f s -> %.3f s (%+.1f%%)@." w s.wall_s
      (100. *. ((s.wall_s /. w) -. 1.))
  | _ -> ());
  let shared = ref 0 in
  List.iter
    (fun { name; ns_per_op } ->
      match List.assoc_opt name b.b_kernels with
      | Some old when Float.is_finite old && old > 0. && Float.is_finite ns_per_op
        ->
        incr shared;
        Format.fprintf ppf "  %-40s %12.1f -> %12.1f ns/op (%+.1f%%)@." name old
          ns_per_op
          (100. *. ((ns_per_op /. old) -. 1.))
      | _ -> ())
    t.kernels;
  let new_kernels =
    List.filter
      (fun k -> not (List.mem_assoc k.name b.b_kernels))
      t.kernels
  in
  let gone =
    List.filter
      (fun (name, _) -> not (List.exists (fun k -> k.name = name) t.kernels))
      b.b_kernels
  in
  if new_kernels <> [] then
    Format.fprintf ppf "  new since baseline: %s@."
      (String.concat ", " (List.map (fun k -> k.name) new_kernels));
  if gone <> [] then
    Format.fprintf ppf "  in baseline only: %s@."
      (String.concat ", " (List.map fst gone));
  Format.fprintf ppf "  (%d kernels compared)@." !shared
