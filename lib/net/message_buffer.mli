(** The global message buffer of Section 2.2.

    When a process sends a message at real time [t], the message enters the
    buffer with a delivery time [t'] drawn from the delay model; at [t'] the
    recipient receives it.  START and TIMER interrupts are modelled
    uniformly with ordinary messages, as in the paper:

    - the buffer initially contains exactly one START per process (scheduled
      by the scenario through {!schedule_start});
    - a timer set for a physical-clock value that has already passed places
      no message (the set-timer rule of Section 2.2);
    - TIMER messages delivered at the same real time as ordinary messages
      are ordered after them (execution property 4).

    The buffer is generic in the algorithm's message type ['m]. *)

type 'm body =
  | Start
  | Timer of float
      (** Carries the physical-clock value the timer was set for. *)
  | Msg of 'm

type 'm delivery = {
  mutable src : int;
  mutable dst : int;
  mutable prov : Csync_obs.Monitor.Prov.id;
      (** causal provenance of this copy (monitored runs only;
          {!Csync_obs.Monitor.Prov.null} for START/TIMER and when no
          monitor is installed) *)
  mutable body : 'm body;
}
(** Fields are mutable because delivery records live in a preallocated slab:
    the buffer reuses records returned through {!release}, so the hot path
    of a steady-state run schedules messages without allocating.  Treat a
    record as read-only and dead after handling it (see {!release}). *)

type 'm fate = { payload : 'm; extra_delay : float }
(** One scheduled copy of a tampered message: the (possibly corrupted)
    payload and a nonnegative delay added on top of the modelled one. *)

type 'm tamper = now:float -> src:int -> dst:int -> 'm -> 'm fate list
(** A link-level fault interposer, consulted once per {!send}.  Returning
    [[]] drops the message, one fate delivers it (possibly altered or
    late), several fates duplicate it.  Used by the chaos layer. *)

type 'm t

val create :
  n:int ->
  ?graph:Csync_topo.Graph.t ->
  delay:Delay.t ->
  ?collision:Collision.t ->
  engine:'m delivery Csync_sim.Engine.t ->
  unit ->
  'm t
(** [graph], when given, restricts {!broadcast} to the sender's
    neighborhood (see {!broadcast}); point-to-point {!send} is never
    filtered.  The buffer captures the installed monitor
    ({!Csync_obs.Monitor.installed}) and mints one
    {!Csync_obs.Monitor.Prov.entry} on it per scheduled message copy:
    sender, recipient, send time and total delay (after any tamper-added
    extra), so a run's latency choices can be audited against a
    model-checker schedule.  Nothing is recorded when that monitor is
    disabled.
    @raise Invalid_argument if the graph's size differs from [n]. *)

val n : 'm t -> int

val graph : 'm t -> Csync_topo.Graph.t option

val engine : 'm t -> 'm delivery Csync_sim.Engine.t

val delay_model : 'm t -> Delay.t

val schedule_start : 'm t -> dst:int -> time:float -> unit
(** Place the START message for [dst] with delivery time [time]. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Send at the current real time; delivery after a modelled delay.  If a
    tamper is installed it decides the message's fate(s) first.
    @raise Invalid_argument if [dst] is out of range. *)

val set_tamper : 'm t -> 'm tamper -> unit
(** Install the link-fault interposer (replacing any previous one). *)

val broadcast : 'm t -> src:int -> 'm -> unit
(** Without a graph: send to every process, including the sender (the
    paper's broadcast primitive).  With one: neighbor-multicast to the
    sender and its out-neighbors, ascending
    ({!Csync_topo.Graph.iter_bcast}) - on a {!Csync_topo.Graph.complete}
    graph the destination order is [0 .. n-1], byte-identical to the
    full-mesh path.  Each copy draws its own delay. *)

val set_timer : 'm t -> dst:int -> at_real:float -> phys_value:float -> bool
(** Place a TIMER for [dst] at real time [at_real], tagged with the
    physical-clock value it corresponds to.  Returns [false] (placing
    nothing) if [at_real] is not strictly in the future. *)

val admit : 'm t -> 'm delivery -> now:float -> bool
(** Collision filter, consulted at delivery time.  START and TIMER are
    always admitted; ordinary messages pass through the collision model. *)

val release : 'm t -> 'm delivery -> unit
(** Return a {e handled} delivery record to the slab for reuse.  Call at
    most once per record, only after the engine delivered it and every
    consumer is done reading it; the record's payload reference is cleared
    and its fields will be overwritten by a future send.  Records that are
    never released are simply collected by the GC. *)

val sent_count : 'm t -> int
(** Ordinary (non-START, non-TIMER) messages sent so far - the message
    complexity measure of Section 10. *)

val dropped_count : 'm t -> int
(** Ordinary messages dropped by the collision model. *)
