(** Reintegration of a repaired process (Section 9.1).

    A process that wakes mid-execution with an arbitrary clock rejoins in
    three steps:

    + {b Observe}: it listens to the round messages flowing past.  Message
      contents identify rounds (each carries T^i); once f+1 {e distinct}
      senders have named the same round value - so at least one of them is
      nonfaulty and the value is a genuine round in flight - its
      {e successor} is a round the process will observe from its very
      beginning ("allowing part of a round to pass", as the paper puts it).
    + {b Collect}: it records the local arrival times of all messages
      carrying the target value T^i, waiting (1+rho)(beta + 2 eps) on its
      own clock after f+1 {e distinct} senders have delivered one - the
      (f+1)-th sender guarantees a nonfaulty anchor, so the window covers
      every nonfaulty process (anchoring on the very first arrival would
      let a faulty early broadcast close the window before any nonfaulty
      message lands).  It then runs the same fault-tolerant averaging as the main
      algorithm ({!Maintenance.average_heard}: mid(reduce(ARR)) with at
      least n - f senders heard, the heard values' own reduced midpoint
      with fewer), ADJ = T^i + delta - AV, and applies it.
      Its own ARR slot stays empty: during reintegration the process counts
      as one of the f faulty ones, which could always fail to send.
    + {b Join}: its clock is now within beta (real time) of the nonfaulty
      processes at T^{i+1}, so it resumes the plain maintenance automaton at
      round i+1 and is no longer faulty.

    The arbitrary initial correction is compensated automatically: it
    cancels in the subtraction of the average arrival time. *)

type mode_tag = Observing | Collecting | Joined

type state

type config = private {
  maintenance : Maintenance.config;
  initial_corr : float;  (** the repaired process' arbitrary correction *)
}

val config : ?initial_corr:float -> Maintenance.config -> config
(** @raise Invalid_argument if the maintenance config uses staggering or
    multiple exchanges (reintegration is defined for the base algorithm). *)

val create : self:int -> config -> float Csync_process.Cluster.proc * (unit -> state)

val state_collecting : config -> target:float -> state
(** A state already past the Observe phase, committed to collecting round
    value [target].  Used by {!Bootstrap} when a straggler has identified
    the maintenance grid from f+1 identical round values. *)

val automaton : self_hint:int -> config -> (state, float) Csync_process.Automaton.t

(** {1 Accessors} *)

val mode : state -> mode_tag

val corr : state -> float

val target : state -> float option
(** The round value being collected, once chosen. *)

val join_round : state -> int option
(** The round index at which the process rejoined, once joined. *)

val maintenance_state : state -> Maintenance.state option
(** The embedded maintenance state after joining. *)

val handle :
  config ->
  self:int ->
  phys:float ->
  float Csync_process.Automaton.interrupt ->
  state ->
  state * float Csync_process.Automaton.action list
(** The raw transition function (exposed so {!Bootstrap} can embed it). *)

val collect_window : Params.t -> float
(** (1+rho)(beta + 2 eps): how long (on its own clock) the rejoiner waits
    after the (f+1)-th distinct sender's target-round arrival. *)
