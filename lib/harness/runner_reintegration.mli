(** Runner for the crash-and-rejoin scenario (Section 9.1 / experiment E9).

    The cast: one permanently silent Byzantine process, and one {e victim}
    that runs the normal maintenance algorithm, crashes at a configured
    round, stays dead for a while (its clock keeps drifting and its
    correction variable is garbage on revival), and then wakes running the
    {!Csync_core.Reintegration} automaton - one
    {!Csync_process.Fault.crash_recover} automaton, booted by a START at
    the wake instant.  While crashed, the victim
    counts toward the fault budget f; after it rejoins, the system is back
    to one fault.

    The runner reports the victim's distance to the nonfaulty mid local
    time over time, the round at which it rejoined, and the skew of the
    full nonfaulty set (victim included) after the rejoin. *)

type t = {
  params : Csync_core.Params.t;
  seed : int;
  victim : int;
  crash_round : int;  (** victim dies when real time reaches this round *)
  wake_round : float;  (** victim revives at this (fractional) round *)
  wake_corr : float;  (** the garbage correction it wakes with *)
  rounds : int;
  silent_faulty : int option;  (** a second, permanently silent process *)
}

val default : ?seed:int -> Csync_core.Params.t -> t
(** victim = n-2, silent = n-1, crash at round 3, wake at round 8.4,
    wake correction 0.371 s, 25 rounds. *)

type result = {
  join_round : int option;  (** round at which the victim rejoined *)
  victim_offset : (float * float) array;
      (** (real time, |victim local - median nonfaulty local|) samples *)
  pre_crash_skew : float;  (** skew incl. victim before the crash *)
  wake_offset : float;  (** victim's distance at wake (should be large) *)
  post_join_skew : float;  (** max skew incl. victim after joining + 1 round *)
  others_skew_throughout : float;
      (** max skew of the surviving processes across the whole run (they
          must never be disturbed by the crash or the rejoin) *)
}

val run : t -> result
