(** Round-phase profiler for the scale pipeline.

    Each {!phase} of a sharded round gets a ["profile.<phase>"] span and
    a ["profile.<phase>.ns"] per-occurrence series in the registry —
    the data behind [csync report]'s "Round-phase profile" table and
    [csync top]'s phase bars.  The disabled path ({!create} on a
    disabled registry, or {!disabled}) is one pattern-match branch,
    perf-gated by the [obs/phase-span-disabled] bench kernel.
    [Fill] and [Sweep] run inside pool tasks, so the scale driver times
    them as plain spans of the same names in each task's own registry,
    and the pool's merge folds them into the run's.

    Timing uses {!now_ns}: wall-clock nanoseconds clamped monotone
    through an atomic high-water mark (no monotonic clock exists in the
    stdlib without C stubs), so durations are never negative — during a
    backward wall-clock step they read 0. *)

type phase = Fill | Sweep | Apply | Advance | Checksum

val phases : phase list
(** In pipeline order. *)

val phase_name : phase -> string
(** ["fill"], ["sweep"], ... — the [<phase>] in the metric names. *)

type t

val disabled : t

val create : Registry.t -> t
(** Mints the phase spans/series from [reg] (under the worker-local
    label in force); disabled iff [reg] is. *)

val active : t -> bool

val now_ns : unit -> int

val record_ns : t -> phase -> int -> unit
(** Record one occurrence of [phase] taking [ns] nanoseconds. *)

val time : t -> phase -> (unit -> 'a) -> 'a
(** Run the thunk, recording its duration against [phase] (also on
    raise).  Exactly [f ()] when disabled. *)
