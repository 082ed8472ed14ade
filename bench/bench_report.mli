(** The benchmark engine behind [csync bench].

    Runs the experiment suite as a timed, parallelism-audited artifact and
    bechamel micro-benchmarks of the computational kernels, and serializes
    the result to the [BENCH_*.json] report shape. *)

type kernel = { name : string; ns_per_op : float }

type suite = {
  wall_s : float;  (** full suite render at [jobs] workers *)
  wall_s_jobs1 : float;  (** same render at 1 worker ([= wall_s] if not rerun) *)
  speedup_vs_jobs1 : float;
  tables_identical : bool;
      (** jobs-N suite output byte-identical to the jobs-1 output *)
}

type alloc = {
  engine_words_per_event : float;
      (** raw wheel schedule+drain: float boxing at the callback boundary *)
  delivery_words_per_event : float;
      (** warm cluster ping-pong: slab-recycled deliveries, so only the
          handler's action list and closure-boundary boxing remain *)
  soa_words_per_event : float;
      (** one struct-of-arrays round at n = 10^4: row fill, sweep and
          row checksum *)
}
(** The allocation audit: minor-heap words per simulated event on each
    layer's steady-state path, measured with [Gc.minor_words] after a
    warm-up pass (slabs and wheels at their high-water marks). *)

type t = {
  mode : string;  (** "quick" or "full" *)
  jobs : int;
  parallel_available : bool;
  suite : suite option;
  kernels : kernel list;
  alloc : alloc option;
}

val run : ?jobs:int -> quick:bool -> compare_jobs1:bool -> unit -> t * string
(** Run the suite (and, when [compare_jobs1] and [jobs <> 1], a second
    one-worker pass for the speedup and byte-identity check) followed by
    the kernel micro-benchmarks.  [jobs <= 0] (the default) means
    {!Csync_harness.Pool.default_jobs}.  Returns the report and the
    rendered suite output (for printing). *)

val mid_reduced_speedup_n10k : t -> float option
(** Naive [mid (reduce ~f u)] time over fused [mid_reduced ~f u] time at
    n = 10000, if both kernels produced finite estimates. *)

val check_states_per_sec : t -> float option
(** Model-checker exploration throughput on the benched scope (distinct
    canonical states per second), if the kernel produced a finite
    estimate. *)

val telemetry_disabled_ns : t -> float option
(** Disabled-path cost of one telemetry instrumentation point
    ([obs/counter-incr-disabled]), if the kernel produced a finite
    estimate. *)

val monitor_disabled_ns : t -> float option
(** Disabled-path cost of one online-monitor check site
    ([obs/monitor-check-disabled]); the observability acceptance keeps
    this within 2x of {!telemetry_disabled_ns}. *)

val stabilize_disabled_ns : t -> float option
(** Pass-through cost of the stabilizing recovery wrapper per interrupt
    ([stabilize/wrapper-disabled]: the {!Csync_core.Stabilize.probe} guard
    on a healthy, schedule-free wrapper); the robustness acceptance keeps
    this within ~10 ns/op. *)

val pp_kernels : Format.formatter -> kernel list -> unit

val pp_summary : Format.formatter -> t -> unit

val to_json : t -> Csync_obs.Json.t
(** The [csync-bench/1] report object; absent and non-finite values are
    [null]. *)

val write_json : t -> string -> unit
(** {!to_json} through {!Csync_obs.Json.to_string}, one line.  Floats are
    written as [%.17g], so {!load_baseline} reads them back bit for bit. *)

(** {2 Baseline comparison} ([csync bench --baseline BENCH_quick.json]) *)

type baseline = {
  b_mode : string option;
  b_suite_wall_s : float option;
  b_kernels : (string * float) list;  (** finite kernel values, in file order *)
}

val load_baseline : string -> (baseline, string) result
(** Reload a previously written BENCH_*.json.  Kernels added or removed
    since the baseline was captured are reported as coverage, not errors,
    so old baselines stay usable. *)

val pp_baseline_deltas :
  Format.formatter -> file:string -> t -> baseline -> unit
(** Per-kernel ns/op deltas (and the suite wall-clock delta when both
    runs measured one) of this report against the baseline. *)
