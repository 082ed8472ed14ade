(** The start-up algorithm of Section 9.2: establishing synchronization
    from {e arbitrary} initial clock values.

    Rounds cannot be triggered by local times here (clocks may be wildly
    apart), so each round has an extra phase in which processes exchange
    READY messages to agree that the next round can begin:

    + at the start of its round, a process broadcasts its local time T and
      waits (1+rho)(2 delta + 4 eps) on its clock, recording for each sender
      the estimated difference DIFF[q] = T_q + delta - local-time();
    + when the timer fires it computes the adjustment
      A = mid(reduce(DIFF)) but does {e not} apply it, then waits a second
      interval of (1+rho)(4 eps + 4 rho (delta + 2 eps) + 2 rho^2 (delta +
      4 eps)) before broadcasting READY - long enough that its READY cannot
      reach anyone still inside a first interval;
    + a process that receives f+1 READY messages while still inside its
      second interval broadcasts READY immediately (it knows some nonfaulty
      process finished);
    + on receiving n-f READY messages it applies A (to CORR and,
      pointwise, to DIFF) and begins its next round.

    Lemma 20: the spread B^i at round i obeys
    B^{i+1} <= B^i/2 + 2 eps + 2 rho (11 delta + 39 eps), converging to
    about 4 eps.  The two-criteria trick for ending the second interval is
    credited to [DLS]. *)

type msg = Time of float | Ready

val pp_msg : Format.formatter -> msg -> unit

type round_record = {
  round : int;
  begin_local : float;  (** T: local time when the round began *)
  begin_phys : float;  (** physical-clock reading at that moment *)
  adjustment : float;  (** A applied at the END of the previous round;
                           0 for round 0 *)
  corr : float;  (** CORR in force during this round *)
  early_end : bool;  (** whether the previous round's second interval ended
                         early on f+1 READYs *)
}

type state

type config = private {
  params : Params.t;
  averaging : Averaging.t;
  initial_corr : float;
}

val config : ?averaging:Averaging.t -> ?initial_corr:float -> Params.t -> config
(** [initial_corr] is this process' arbitrary starting correction (the whole
    point: it need not be close to anyone else's). *)

val create : self:int -> config -> msg Csync_process.Cluster.proc * (unit -> state)

val automaton : self_hint:int -> config -> (state, msg) Csync_process.Automaton.t

(** {1 Accessors} *)

val corr : state -> float

val rounds_completed : state -> int

val history : state -> round_record list
(** Round beginnings, oldest first. *)

val handle :
  config ->
  self:int ->
  phys:float ->
  msg Csync_process.Automaton.interrupt ->
  state ->
  state * msg Csync_process.Automaton.action list
(** The raw transition function (exposed so {!Bootstrap} can embed it). *)

val first_interval : Params.t -> float
(** (1+rho)(2 delta + 4 eps). *)

val second_interval : Params.t -> float
(** (1+rho)(4 eps + 4 rho (delta + 2 eps) + 2 rho^2 (delta + 4 eps)). *)
