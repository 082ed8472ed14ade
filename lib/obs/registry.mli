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
    ambient registry (or monitor, see {!Monitor}) is enabled, [Pool.init]
    gives every task its own
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
    another shape); grids fold link by link (growing to the child's [n];
    [Invalid_argument] on another window); spans fold; series points and
    events append in the child's order, under [into]'s event cap; a gauge
    replays its last operation ({!Gauge.set}: the child's value wins;
    {!Gauge.observe_max}: the max is kept).  No-op if either registry is
    {!none}. *)

val now_ns : unit -> int
(** The host's monotonic clock ([CLOCK_MONOTONIC]) in integer
    nanoseconds since an unspecified epoch.  Unlike the wall clock it
    never steps, so durations taken from it are never negative even if
    NTP adjusts the host mid-run.  {!Span.time} reads it, as do the
    fleet emitter's timestamps and the bench and model-checker timers. *)

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

(** Per-link histograms of an [n]-process system, as one instrument
    ({!hist_grid}). *)
module Grid : sig
  type handle

  val active : handle -> bool

  val add : handle -> src:int -> dst:int -> float -> unit
  (** Record a value on link [(src, dst)].
      @raise Invalid_argument unless both are below the grid's [n]. *)

  val count : handle -> src:int -> dst:int -> int
end

module Span : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val record : handle -> float -> unit
  (** Record a duration in seconds. *)

  val time : handle -> (unit -> 'a) -> 'a
  (** Run the thunk, recording its duration on {!now_ns} (also on
      raise).  On a no-op handle this is exactly [f ()]. *)

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

val hist_grid :
  t -> lo:float -> hi:float -> bins:int -> n:int -> string -> Grid.handle
(** One linear histogram per link [(src, dst)], [src, dst < n], all over
    one window, stored flat ({!Csync_metrics.Histogram.Grid}) and named
    only by {!records}: link [(src, dst)] of grid [name] records as
    the {!hist} [name ^ "." ^ src ^ "->" ^ dst] would (decimal pids,
    label prefix included), with the same fields and bins.  Every one of
    the [n * n] links is recorded, empty ones too, in name order among
    all histograms.

    Interned by name like {!hist}: the window ([lo], [hi], [bins]) is
    the first minting's.  Re-minting with a larger [n] grows the grid,
    keeping every link's counts, so the recorded names are the union of
    all mintings; handles minted earlier stay valid.  {!merge} folds a
    child's grid link by link, growing [into]'s likewise, and raises
    [Invalid_argument] on another window, as it does on histogram
    shapes.  Link names of two grids must not interleave (no grid name
    is another's followed by ["."] and a digit).
    @raise Invalid_argument if a re-minting both grows [n] and names
    another window: as named histograms its new links would take the
    new window, and a grid has one. *)

val span : t -> string -> Span.handle

val event : t -> string -> (string * Json.t) list -> unit
(** Append a structured event (capped at 65536 per run; overflow is
    counted and reported as [obs.events_dropped]). *)

val records : t -> Record.t list
(** Every cell as a trace record, deterministically ordered: counters,
    gauges, series, histograms (every grid link included), spans (each
    sorted by name), then events in emission order. *)

val dump : t -> Json.t list
(** {!records} rendered by {!Record.to_json}. *)
