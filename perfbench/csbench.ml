(* Workload program of the csync benchmark.  perfbench/run.py builds it from
   the checkout and passes its arguments through:

     csbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload builds all of its inputs from the seed, repeats one operation
   until [seconds] have passed, checks every result against the bound the
   paper (or the layer's reference path) gives for it, and prints one JSON
   line as the last line of its output:

     {"correct": b, "attempted": n, "failed": n, "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones: the 90th percentile
   operation time, median set-up time and peak resident set.
   With --trace 1 the same operations run with spans around every call into
   a layer, and the metrics are the operation's 90th percentile time with
   the spans on, and per operation the median share of it each layer took
   and the work counts; a layer the workload does not enter reports 0.

   Workloads (all single-threaded, so the figures do not depend on how many
   cores the host lends the run):

   - scale: one gradient-sync round of the struct-of-arrays model
     (Process.Soa rows, Core.Sweep, Harness.Scale rounds) on a seeded
     degree-8 expander at n = 10 000 with crash and pull faults;
   - traced: one paper-faithful maintenance run (Process.Cluster hosting
     Core.Maintenance automata beside a seeded Byzantine cast) at n = 16,
     f = 5, over 10 rounds, with the telemetry registry and the theorem
     monitors installed, its capture encoded to csync-btrace/1 and decoded
     back - what `csync trace --monitor` pays. *)

module Graph = Csync_topo.Graph
module Gradient = Csync_topo.Gradient
module Soa = Csync_process.Soa
module Cluster = Csync_process.Cluster
module Automaton = Csync_process.Automaton
module Sweep = Csync_core.Sweep
module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Adversary = Csync_core.Adversary
module Scale = Csync_harness.Scale
module Env = Csync_harness.Env
module Sampling = Csync_harness.Sampling
module Defaults = Csync_harness.Defaults
module Rng = Csync_sim.Rng
module Obs = Csync_obs.Registry
module Mon = Csync_obs.Monitor
module Record = Csync_obs.Record
module Btrace = Csync_obs.Btrace

let now = Unix.gettimeofday

(* ---------- samples and verdicts ---------- *)

(* Flat float arrays, so that what the benchmark stores per operation
   barely grows the resident set it reports. *)
type series = { mutable data : float array; mutable len : int }

let samples : (string, series) Hashtbl.t = Hashtbl.create 16

let sample name v =
  let s =
    match Hashtbl.find_opt samples name with
    | Some s -> s
    | None ->
      let s = { data = Array.make 4096 0.; len = 0 } in
      Hashtbl.add samples name s;
      s
  in
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let sample_ms name seconds = sample name (seconds *. 1e3)

(* A layer's share of the operation it ran in, in percent. *)
let sample_share name part whole = sample name (100. *. part /. whole)

(* Nearest-rank quantile; 0 for a series the workload never sampled. *)
let quantile name q =
  match Hashtbl.find_opt samples name with
  | None -> 0.
  | Some s ->
    let a = Array.sub s.data 0 s.len in
    Array.sort Float.compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let attempted = ref 0
let failed = ref 0

let verdict ok =
  incr attempted;
  if not ok then incr failed

(* Run [op] until [seconds] have passed, at least once. *)
let repeat ~seconds op =
  let deadline = now () +. seconds in
  let rec go () =
    op ();
    if now () < deadline then go ()
  in
  go ()

(* Set-up is timed several times per run and reported as the median, so
   work moved out of the operation into set-up shows; only the last copy
   is kept. *)
let setup_reps = 9

let timed_setup build =
  let last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let v = build () in
    sample "setup_s" (now () -. t0);
    last := Some v
  done;
  Gc.full_major ();
  Option.get !last

(* ---------- scale: Soa / Sweep / Scale ---------- *)

(* E16's gradient regime: LAN-scale delays, offsets seeded inside the
   basin the gradient rule maintains, one crash and one pulling Byzantine
   process per 10^4 processes. *)
module Scale_workload = struct
  let n = 10_000
  let rho = 1e-5
  let delta = 0.01
  let eps = 0.001
  let period = 10.
  let gain = 1.0
  let kappa = Gradient.kappa ~rho ~eps ~period ~gain

  let build seed () =
    let graph = Graph.expander ~n ~degree:8 ~seed in
    let m =
      Soa.create ~graph ~f:2 ~seed ~rho ~delta ~eps ~period
        ~dispersion:(2. *. eps) ~mode:(Soa.Gradient_avg gain) ~n ()
    in
    let rng = Rng.create seed in
    for _ = 1 to n / 10_000 do
      Soa.crash m (Rng.int rng n);
      Soa.set_pull m (Rng.int rng n) 0.3
    done;
    m

  let end_to_end ~seed ~seconds =
    let m = timed_setup (build seed) in
    ignore (Scale.round ~jobs:1 m);
    repeat ~seconds (fun () ->
        let t0 = now () in
        ignore (Scale.round ~jobs:1 m);
        sample_ms "op_ms" (now () -. t0);
        verdict (Soa.local_skew m <= kappa))

  (* Model [a] runs whole rounds through Scale; its twin [b] runs the same
     round layer by layer (fill the rows, sweep them, apply and advance).
     Scale's own share is what the layers leave of the whole round: its
     merge and shard bookkeeping.  Both must reach the same state every
     round. *)
  let layered ~seed ~seconds =
    let a = build seed () and b = build seed () in
    let width = Soa.width b and f = Soa.f b in
    let mids = Array.make n Float.nan in
    let round_by_layer () =
      let t0 = now () in
      let sh = Soa.run_shard b ~lo:0 ~hi:n in
      let t1 = now () in
      Sweep.sweep ~slab:sh.Soa.slab ~width ~counts:sh.Soa.counts ~f ~out:mids;
      let t2 = now () in
      Soa.apply b ~lo:0 mids;
      Soa.advance b;
      let t3 = now () in
      (t1 -. t0, t2 -. t1, t3 -. t2)
    in
    ignore (Scale.round ~jobs:1 a);
    ignore (round_by_layer ());
    repeat ~seconds (fun () ->
        let t0 = now () in
        let events, _ = Scale.round ~jobs:1 a in
        let whole = now () -. t0 in
        let fill, sweep, apply = round_by_layer () in
        sample_ms "layered_op_ms" whole;
        sample_share "soa_fill_pct" fill whole;
        sample_share "sweep_pct" sweep whole;
        sample_share "soa_apply_pct" apply whole;
        sample_share "scale_self_pct" (whole -. fill -. sweep -. apply) whole;
        sample "scale_events" (float_of_int events);
        verdict
          (Scale.state_checksum a = Scale.state_checksum b
          && Soa.local_skew a <= kappa))
end

(* ---------- traced: Cluster / Maintenance / Obs ---------- *)

module Traced_workload = struct
  let n = 16
  let f = 5
  let rounds = 10
  let samples_per_round = 4
  let params = lazy (Defaults.base ~n ~f ())

  (* Times every call into the Maintenance automaton's transition. *)
  let timed_handler acc (a : ('s, 'm) Automaton.t) =
    {
      a with
      Automaton.handle =
        (fun ~self ~phys i s ->
          let t0 = now () in
          let r = a.Automaton.handle ~self ~phys i s in
          acc := !acc +. (now () -. t0);
          r);
    }

  (* One run's system: Scenario's environment (drifting clocks, uniform
     delays, initial offsets within beta) with the standard Byzantine cast
     - one silent, one two-faced, the rest pulling by beta - on f pids
     drawn from the run's seed. *)
  let assemble ~run_seed ~handler_s =
    let params = Lazy.force params in
    let beta = params.Params.beta in
    let rng = Rng.create run_seed in
    let pids = Array.init n Fun.id in
    Rng.shuffle rng pids;
    let role pid =
      let rec find i =
        if i >= f then None else if pids.(i) = pid then Some i else find (i + 1)
      in
      find 0
    in
    let env =
      Env.make ~params ~seed:run_seed ~clock_kind:Env.Drifting
        ~delay_kind:Env.Uniform_delay
        ~is_faulty:(fun p -> role p <> None)
        ~offset_spread:(0.9 *. beta) ~rounds
    in
    let cfg = Maintenance.config params in
    let procs =
      Array.init n (fun pid ->
          match role pid with
          | Some 0 -> Adversary.silent ()
          | Some 1 -> Adversary.two_faced ~params ~spread:beta ~split:(n / 2)
          | Some _ -> Adversary.pull ~params ~offset:beta
          | None ->
            let auto = Maintenance.automaton ~self_hint:pid cfg in
            let auto =
              match handler_s with
              | None -> auto
              | Some acc -> timed_handler acc auto
            in
            fst (Cluster.make_proc auto))
    in
    let cluster =
      Cluster.create ~clocks:env.Env.clocks ~delay:env.Env.delay ~procs ()
    in
    Cluster.schedule_starts_at_logical cluster ~t0:params.Params.t0
      ~corrs:(Array.make n 0.);
    (cluster, env)

  (* Drive the run to its horizon, sampling the nonfaulty skew; the online
     monitors see every sample, as in Scenario.run. *)
  let simulate (cluster, env) =
    let params = Lazy.force params in
    let { Params.big_p; rho; t0; _ } = params in
    let tmin0 = Env.tmin0 env and tmax0 = Env.tmax0 env in
    let warmup = tmax0 +. (2. *. big_p *. (1. +. (2. *. rho))) in
    let times =
      Sampling.grid ~from_time:tmax0 ~to_time:(env.Env.horizon -. 1.)
        ~count:(rounds * samples_per_round)
    in
    let mon = Mon.installed () in
    let agree =
      Mon.Agreement.handle mon ~gamma:(Params.gamma params) ~from_time:warmup
    in
    let alpha1, alpha2, alpha3 = Params.validity params in
    let valid =
      Mon.Validity.handle mon ~alpha1 ~alpha2 ~alpha3 ~t0 ~tmin0 ~tmax0
    in
    let on_sample (s : Sampling.sample) =
      Mon.Agreement.check agree ~time:s.time ~skew:s.skew;
      Mon.Validity.check valid ~time:s.time ~min_local:s.min_local
        ~max_local:s.max_local
    in
    let s =
      Sampling.run ~on_sample ~cluster ~observe:env.Env.nonfaulty ~times ()
    in
    Sampling.max_skew ~from_time:warmup s <= Params.gamma params
    && Sampling.validity_check s ~params ~tmin0 ~tmax0 = `Holds

  (* The capture `csync trace` writes, through the btrace container and
     back.  Returns the time spent in each step, the encoded size, the
     dumped records and the decoded ones ([None] on a decode error). *)
  let capture reg mon =
    let t0 = now () in
    let records =
      List.map
        (fun j ->
          match Record.of_json j with
          | Ok r -> r
          | Error e -> failwith ("bad telemetry record: " ^ e))
        (Obs.dump reg @ Mon.dump mon)
    in
    let t1 = now () in
    let buf = Buffer.create 65536 in
    let w = Btrace.writer_fn (Buffer.add_string buf) in
    List.iter (Btrace.write w) records;
    Btrace.close_writer w;
    let bytes = Buffer.contents buf in
    let t2 = now () in
    let feed = Btrace.feed () in
    Btrace.feed_bytes feed bytes;
    let rec decode acc =
      match Btrace.feed_next feed with
      | `Record r -> decode (r :: acc)
      | `Await -> Some (List.rev acc)
      | `Error _ -> None
    in
    let decoded = decode [] in
    let t3 = now () in
    ((t1 -. t0, t2 -. t1, t3 -. t2), String.length bytes, records, decoded)

  (* [compare], not [=]: a NaN gauge must still equal its decoded copy. *)
  let same_records records decoded =
    match decoded with
    | Some d -> compare records d = 0
    | None -> false

  let run ~layers ~seed ~seconds =
    let op i =
      let run_seed = (seed * 100_003) + i in
      let handler_s = if layers then Some (ref 0.) else None in
      let t0 = now () in
      let reg = Obs.create () and mon = Mon.create () in
      Obs.install reg;
      Mon.install mon;
      let sys = assemble ~run_seed ~handler_s in
      let t1 = now () in
      let ok = simulate sys in
      let t2 = now () in
      Obs.clear_installed ();
      Mon.clear_installed ();
      let (dump, encode, decode), bytes, records, decoded = capture reg mon in
      let t3 = now () in
      let whole = t3 -. t1 in
      (match handler_s with
      | Some acc ->
        sample_ms "layered_op_ms" whole;
        sample_share "maintenance_pct" !acc whole;
        sample_share "cluster_pct" (t2 -. t1 -. !acc) whole;
        sample "cluster_messages"
          (float_of_int (Cluster.messages_sent (fst sys)))
      | None ->
        sample "setup_s" (t1 -. t0);
        sample_ms "op_ms" whole);
      if layers then begin
        sample_share "obs_dump_pct" dump whole;
        sample_share "btrace_encode_pct" encode whole;
        sample_share "btrace_decode_pct" decode whole;
        sample "btrace_bytes" (float_of_int bytes);
        sample "trace_records" (float_of_int (List.length records))
      end;
      ok
      && same_records records decoded
      && Mon.violations_total mon = 0
      && Mon.checks_performed mon > 0
    in
    (* One untimed run first, so the timed ones start with the heap grown. *)
    let warm = op 0 in
    Hashtbl.reset samples;
    verdict warm;
    let i = ref 0 in
    repeat ~seconds (fun () ->
        incr i;
        verdict (op !i))
end

(* ---------- output ---------- *)

let end_to_end =
  [
    ("op_p90_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB");
  ]

(* Layer times are shares of the operation they ran in, so that a layer
   the workload never enters reads 0 % rather than a constant 0 ms. *)
let per_layer =
  [
    ("layered_op_p90_ms", "ms");
    ("soa_fill_pct", "%"); ("sweep_pct", "%"); ("soa_apply_pct", "%");
    ("scale_self_pct", "%"); ("scale_events", "count");
    ("cluster_pct", "%"); ("maintenance_pct", "%");
    ("cluster_messages", "count");
    ("obs_dump_pct", "%"); ("btrace_encode_pct", "%");
    ("btrace_decode_pct", "%"); ("btrace_bytes", "B");
    ("trace_records", "count");
  ]

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let status =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Operation times are reported as the 90th percentile rather than the
   median: on a shared host, quiet spells make cache-heavy operations up
   to ~40 % faster and cover anywhere from none to most of a run, so the
   median jumps between the two speeds from run to run while the 90th
   percentile stays with the loaded one.  Higher percentiles add the
   collector's pauses and were less steady still. *)
let value name =
  match name with
  | "op_p90_ms" -> quantile "op_ms" 0.9
  | "layered_op_p90_ms" -> quantile "layered_op_ms" 0.9
  | "peak_rss_mb" -> peak_rss_mb ()
  | name -> quantile name 0.5

let print_result metrics =
  let values =
    List.map (fun (name, unit) -> (name, unit, value name)) metrics
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) values in
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.)
          unit)
      values
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (finite && !failed = 0)
    !attempted !failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "scale | traced");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "csbench --workload NAME --seed N --seconds S --trace 0|1";
  let layers = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  (match !workload with
  | "scale" ->
    if layers then Scale_workload.layered ~seed ~seconds
    else Scale_workload.end_to_end ~seed ~seconds
  | "traced" -> Traced_workload.run ~layers ~seed ~seconds
  | w ->
    prerr_endline ("csbench: unknown workload " ^ w);
    exit 2);
  print_result (if layers then per_layer else end_to_end)
