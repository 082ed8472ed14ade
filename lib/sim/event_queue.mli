(** Time-ordered event queue with deterministic tie-breaking.

    Events are ordered by (time, priority class, insertion sequence).  The
    priority class implements property 4 of the paper's execution model
    (Section 2.3): all TIMER messages received by a process at real time [t]
    are ordered {e after} any non-TIMER messages arriving at the same [t]
    ("messages that arrive at the same time as a timer is due to go off get
    in just under the wire").  Schedule ordinary and START messages with
    {!prio_message} and timers with {!prio_timer}.

    Two backends implement that contract with identical pop order:

    - {!Heap}: the reference comparison-based binary heap, O(log n) per
      operation, no assumptions about the time distribution.
    - {!Wheel}: a timing wheel / calendar queue exploiting the model's
      bounded delays — O(1) bucket insert, lazy per-bucket sort, an
      occupancy bitmask to skip empty buckets, and an overflow heap for
      events beyond the wheel's horizon ([buckets * width] ahead of the
      current bucket) which are promoted as the {e bucket epoch} (the
      logical number of the current bucket) advances.

    The default backend is the wheel; set [CSYNC_ENGINE=heap] (or [=wheel])
    in the environment to override it globally, e.g. for byte-identity
    comparisons between backends. *)

type backend =
  | Heap
  | Wheel of { width : float; buckets : int }
      (** [width] is the bucket granularity in simulated seconds — for the
          clock-synchronization workloads a fraction of the delay jitter
          [eps] is the natural choice; [buckets] is the wheel size, giving a
          horizon of [width * buckets] before events overflow to the heap. *)

type 'a t

val prio_message : int
(** Priority class for ordinary and START messages (delivered first). *)

val prio_timer : int
(** Priority class for TIMER messages (delivered after messages at equal
    time). *)

val default_backend : unit -> backend
(** The wheel with default geometry, unless [CSYNC_ENGINE=heap]. *)

val create : ?backend:backend -> ?expected:int -> unit -> 'a t
(** [backend] defaults to {!default_backend}.  [expected] is a capacity
    hint: the heap backend presizes its array to that many events, the
    wheel presizes each bucket to [expected / buckets]; either way a queue
    that stays within the hint never re-blits while growing.
    @raise Invalid_argument on a non-positive or non-finite wheel width, or
    fewer than one bucket. *)

val backend_kind : 'a t -> backend
(** Which backend this queue runs on (with its actual geometry). *)

val size : 'a t -> int

val occupancy : 'a t -> int
(** Occupied bucket count of the wheel backend's bitmask (how spread out
    the pending horizon is; telemetry reads it for the engine's
    occupancy gauge on every schedule).  O(1): the wheel keeps the count
    as buckets fill and empty.  Events in the overflow heap occupy no
    bucket.  Always 0 on the heap backend, which has no buckets. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> prio:int -> 'a -> unit
(** @raise Invalid_argument if [time] is not finite or [prio] is outside
    [0, 2^20) — priority {e classes} are few and small by design, which
    lets both backends carry (prio, seq) as one packed integer. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event (breaking ties by priority class,
    then insertion order). *)

val pop_if_before : 'a t -> until:float -> (float * 'a) option
(** [pop] the earliest event only if its time is [<= until]; a single queue
    traversal replacing the peek-then-pop pattern.  [pop q] is
    [pop_if_before q ~until:infinity]. *)

val iter_pop_until : 'a t -> until:float -> f:(float -> 'a -> unit) -> int
(** Repeatedly pop events with time [<= until], calling [f time payload] on
    each, and return how many were delivered.  [f] may add further events,
    including inside the window — they are delivered in order within the
    same call.  Allocation-free per event apart from the float boxing at
    the callback boundary: the [time] passed to [f], 2 words (the test
    suite holds a warm add+pop, [add]'s own [~time] box included, to
    4.5 words per event). *)
