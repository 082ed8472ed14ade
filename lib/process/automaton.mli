(** The process model of Section 2.1.

    A process is an automaton: a state type plus a transition function that,
    given the current state, the received interrupt, and the physical clock
    reading, produces the new state and the actions to perform (messages to
    send, timers to set).  Processing is instantaneous; the only way a
    process takes a step is by receiving an interrupt (START, TIMER, or an
    ordinary message) - exactly the paper's execution model.

    Nonfaulty processes obey their transition function by construction.
    Byzantine processes are modelled by substituting a different automaton
    (see {!Fault}); the cluster imposes no constraints on what an automaton
    does, mirroring the paper's unconstrained faulty transitions. *)

type 'm interrupt =
  | Start  (** System start-up (one per process, scheduled by the scenario). *)
  | Timer of float
      (** A timer set earlier by this process; carries the tag passed to
          [Set_timer_logical] (the logical-clock time it was set for) or
          [Set_timer_phys] (the physical-clock value). *)
  | Message of int * 'm  (** Ordinary message with its sender's id. *)

type 'm action =
  | Send of int * 'm  (** Point-to-point send. *)
  | Broadcast of 'm  (** Send to every process, including self. *)
  | Set_timer_logical of float
      (** Fire when the logical clock (physical + the {e post-step}
          correction, as in the paper's set-timer subroutine) reaches this
          value.  Dropped silently if already past. *)
  | Set_timer_phys of float
      (** Fire when the raw physical clock reaches this value. *)

type ('s, 'm) t = {
  name : string;  (** For traces and error messages. *)
  initial : 's;
  handle : self:int -> phys:float -> 'm interrupt -> 's -> 's * 'm action list;
      (** The transition function.  [phys] is the physical-clock reading at
          the moment of receipt.  It may update the state it is given in
          place (the maintenance automaton's ARR does), so callers thread
          states linearly and never handle an earlier state again. *)
  corr : 's -> float;
      (** The process' current CORR variable: the simulator uses it to
          resolve logical-clock timers and to sample local times.  Automata
          without a meaningful correction (pure attackers) return 0. *)
}

val stateless : name:string -> (self:int -> phys:float -> 'm interrupt -> 'm action list) -> (unit, 'm) t
(** An automaton with no state, for simple fault strategies. *)

val pp_action :
  (Format.formatter -> 'm -> unit) -> Format.formatter -> 'm action -> unit
