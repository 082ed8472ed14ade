(** Lightweight bounded trace recorder for simulation debugging.

    Keeps the most recent [capacity] entries in a ring buffer so that long
    runs stay O(1) in memory.  Tracing is off by default; experiments enable
    it when diagnosing a scenario. *)

type t

type delay_choice = { sent : float; src : int; dst : int; delay : float }
(** Provenance of one delivery: the message from [src] to [dst] handed to
    the buffer at real time [sent] was assigned latency [delay].  Recorded by
    {!Csync_net.Message_buffer} when delay tracing is on, so a model-checker
    counterexample and a simulator replay can be diffed choice-by-choice. *)

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 entries (text and delay rings each).  Each ring
    is allocated when its switch is first turned on, so a trace that never
    records costs only its header. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val record : t -> time:float -> string -> unit
(** No-op when disabled. *)

val recordf :
  t -> time:float -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant; the message is not built when tracing is disabled. *)

val delays_enabled : t -> bool

val set_delays_enabled : t -> bool -> unit
(** Delay-choice recording has its own switch: it is cheap but per-message,
    while text tracing is per-event and formatted. *)

val record_delay : t -> sent:float -> src:int -> dst:int -> delay:float -> unit
(** No-op when delay recording is disabled. *)

val delays : t -> delay_choice list
(** Oldest retained delay choice first. *)

val delays_total : t -> int
(** Number of delay choices ever recorded (including evicted ones). *)

val length : t -> int
(** Number of retained entries (<= capacity). *)

val total : t -> int
(** Number of entries ever recorded (including evicted ones). *)

val to_list : t -> (float * string) list
(** Oldest retained entry first. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
