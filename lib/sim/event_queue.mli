(** Time-ordered event queue with deterministic tie-breaking.

    Events are ordered by (time, priority class, insertion sequence).  The
    priority class implements property 4 of the paper's execution model
    (Section 2.3): all TIMER messages received by a process at real time [t]
    are ordered {e after} any non-TIMER messages arriving at the same [t]
    ("messages that arrive at the same time as a timer is due to go off get
    in just under the wire").  Schedule ordinary and START messages with
    {!prio_message} and timers with {!prio_timer}.

    The queue is a timing wheel / calendar queue exploiting the model's
    bounded delays: O(1) bucket insert, lazy per-bucket sort, an occupancy
    bitmask to skip empty buckets, and an overflow heap for events beyond
    the wheel's horizon ([buckets * width] ahead of the current bucket),
    promoted as the {e bucket epoch} (the logical number of the current
    bucket) advances.  One bucket-index rule places every event, so the
    geometry changes only speed, never the pop order. *)

type 'a t

val prio_message : int
(** Priority class for ordinary and START messages (delivered first). *)

val prio_timer : int
(** Priority class for TIMER messages (delivered after messages at equal
    time). *)

val create : ?width:float -> ?buckets:int -> ?expected:int -> unit -> 'a t
(** [width] (default 0.25) is the bucket granularity in simulated seconds:
    for the clock-synchronization workloads a fraction of the delay jitter
    [eps] is the natural choice.  [buckets] (default 1024, rounded up to a
    power of two) is the wheel size, giving a horizon of [width * buckets]
    before events overflow to the heap.  [expected] is a capacity hint:
    each bucket is presized to [expected / buckets] events.
    @raise Invalid_argument on a non-positive or non-finite width, or
    fewer than one bucket. *)

val size : 'a t -> int

val occupancy : 'a t -> int
(** Occupied bucket count of the wheel's bitmask (how spread out the
    pending horizon is; telemetry reads it for the engine's occupancy
    gauge on every schedule).  O(1): the wheel keeps the count as buckets
    fill and empty.  Events in the overflow heap occupy no bucket. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> prio:int -> 'a -> unit
(** @raise Invalid_argument if [time] is not finite or [prio] is outside
    [0, 2^20) — priority {e classes} are few and small by design, which
    lets the queue carry (prio, seq) as one packed integer. *)

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
