(** Discrete-event simulation engine.

    The engine owns the global notion of real time.  Time only moves forward:
    it advances to the timestamp of each event as it is delivered, or to an
    explicit target in {!run_until}.  Handlers may schedule further events at
    or after the current time. *)

type 'a t

val create : ?width:float -> ?expected:int -> unit -> 'a t
(** The clock starts at real time 0.  [width] (the timing wheel's bucket
    width in simulated seconds) and [expected] (a presize hint for the
    number of concurrently pending events) are forwarded to
    {!Event_queue.create}. *)

val now : 'a t -> float
(** Current real time. *)

val schedule : 'a t -> time:float -> ?prio:int -> 'a -> unit
(** Enqueue an event.  [prio] defaults to {!Event_queue.prio_message}.
    @raise Invalid_argument if [time] is in the past ([time < now]). *)

val pending : 'a t -> int

val next : 'a t -> (float * 'a) option
(** Deliver the earliest event, advancing [now] to its time. *)

val peek_time : 'a t -> float option

val step : 'a t -> handler:(float -> 'a -> unit) -> bool
(** Deliver one event through [handler]; [false] if the queue was empty. *)

val run_until : 'a t -> until:float -> handler:(float -> 'a -> unit) -> unit
(** Deliver every event with time <= [until] (including events the handler
    schedules inside the window), then advance [now] to [until].  A no-op if
    [until < now]. *)

val drain : 'a t -> handler:(float -> 'a -> unit) -> max_events:int -> int
(** Deliver events until the queue empties or [max_events] is hit; returns
    the number delivered.  A guard against runaway schedules in tests. *)
