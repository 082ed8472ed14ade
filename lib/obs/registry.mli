(** Run-scoped telemetry registry.

    A registry is either {e enabled} (created by [csync trace] or a test)
    or the shared disabled singleton {!none}.  Handles minted from a
    disabled registry are permanent no-ops — the disabled hot path is a
    single pattern-match branch with no allocation, measured by the
    [obs] bench kernel.

    Instrumented components capture {!installed} at {e creation} time
    (engine/buffer/automaton construction), so enabling telemetry never
    changes call signatures, and — the cardinal invariant — never
    changes what an experiment computes: instrumentation only observes,
    it draws no randomness and alters no scheduling.

    {b One writer.}  A registry's cells are plain mutable fields with no
    atomics or locks, so at any moment at most one worker (domain or
    thread) may record into (or mint handles from) a given registry.
    Parallel code upholds this through [Csync_harness.Pool]: when the
    ambient registry is enabled, [Pool.init] gives every task its own
    {!child}, installs it on the worker for the duration of the task,
    and after the join {!merge}s the children into the parent in
    task-index order — the order a one-worker run records in, which is
    why traces do not depend on [--jobs].  Code inside a pool task must
    therefore record only into {!installed} (or handles minted from
    it), never into a registry captured outside the task. *)

type t

val none : t
(** The disabled singleton. *)

val create : unit -> t
(** A fresh enabled registry. *)

val enabled : t -> bool

(** {2 Ambient installation} *)

val install : t -> unit
(** Make [t] this worker's ambient registry, picked up by components
    created from now on.  Call before constructing the traced run. *)

val installed : unit -> t
(** The ambient registry of this worker ({!none} unless {!install} was
    called on it).  The slot is worker-local ({!Tls}: [Domain.DLS] on
    OCaml 5), so a pool task sees its own child. *)

val clear_installed : unit -> unit

val set_label : t -> string -> unit
(** Prefix metric names subsequently minted from [t] with
    [label ^ "/"]; the harness sets this on each task's child to the
    experiment-cell label so per-cell metrics don't collide.  No-op on
    {!none}. *)

val label : t -> string
(** The label in force on [t] ([""] on {!none}). *)

(** {2 Per-task children} *)

val child : t -> t
(** A fresh enabled registry carrying [t]'s label, or {!none} if [t] is
    {!none}.  Record into it on one worker, then {!merge} it back. *)

val merge : into:t -> t -> unit
(** Fold a child's records into [into], as if they had been recorded
    there directly after everything [into] already holds: counters add;
    histograms fold ([Invalid_argument] if [into] holds the name with
    another shape); spans fold; series points and events append in the
    child's order, under [into]'s event cap; a gauge replays its last
    operation ({!Gauge.set}: the child's value wins; {!Gauge.observe_max}:
    the max is kept).  No-op if either registry is {!none}. *)

val now_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]), for span timing. *)

(** {2 Instruments}

    All [value]/[points]/[count] accessors return zero/empty on no-op
    handles. *)

module Counter : sig
  type handle

  val noop : handle

  val incr : handle -> unit

  val add : handle -> int -> unit

  val value : handle -> int
end

module Gauge : sig
  type handle

  val noop : handle

  val active : handle -> bool
  (** [false] on no-op handles; guard expensive argument computation. *)

  val set : handle -> float -> unit

  val observe_max : handle -> float -> unit
  (** High-water mark: keeps the max of all observations. *)

  val value : handle -> float option
end

module Series : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val push : handle -> float -> float -> unit
  (** [push h x y] appends an (x, y) point. *)

  val points : handle -> (float * float) list
end

module Hist : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val add : handle -> float -> unit

  val count : handle -> int
end

module Span : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val record : handle -> float -> unit
  (** Record a duration in seconds. *)

  val time : handle -> (unit -> 'a) -> 'a
  (** Run the thunk, recording its wall-clock duration (also on raise).
      On a no-op handle this is exactly [f ()]. *)

  val count : handle -> int
end

val counter : t -> string -> Counter.handle

val gauge : t -> string -> Gauge.handle

val series : t -> string -> Series.handle

val hist : t -> lo:float -> hi:float -> bins:int -> string -> Hist.handle
(** Interned by name; [lo]/[hi]/[bins] are taken from the first minting. *)

val hist_log : t -> lo:float -> hi:float -> per_decade:int -> string -> Hist.handle
(** Log-bucketed (HDR-style) histogram, [per_decade] bins per decade over
    [lo, hi] ({!Csync_metrics.Histogram.log}) — for skew/delay
    distributions spanning decades.  Interned by name like {!hist}. *)

val span : t -> string -> Span.handle

val event : t -> string -> (string * Json.t) list -> unit
(** Append a structured event (capped at 65536 per run; overflow is
    counted and reported as [obs.events_dropped]). *)

val dump : t -> Json.t list
(** One JSON object per record, deterministically ordered: counters,
    gauges, series, histograms, spans (each sorted by name), then events
    in emission order. *)
