(** Counterexample replay in the full simulator.

    Unlike the checker's per-round mini-simulations, this is one
    continuous multi-round run of the production stack - automata keep
    their arrival arrays and cross-round timers - under the
    counterexample's exact delay schedule (via an adversarial delay model
    keyed on send time) and its literal Byzantine agenda.  If the checker's
    round-boundary state abstraction is sound, the replayed per-round CORR
    spreads equal the checker's bit-for-bit; [test_check.ml] asserts
    exactly that over every schedule of a small scope.

    The run installs a monitor of its own with no checks
    ([Monitor.create ~checks:[] ()]) and restores the caller's afterwards,
    so the caller's monitor records nothing of the replay.  That monitor's
    provenance ring ({!Csync_obs.Monitor.Prov}) is the run's delay log, so
    a replay can also be audited choice-by-choice against the schedule it
    was supposed to follow. *)

type t = {
  round_spreads : float array;  (** post-update CORR spread, per round *)
  final_corrs : float array;
  skew : float;  (** the final round's spread - compare to [Cex.measured] *)
  delay_log : Csync_obs.Monitor.Prov.entry list;
      (** one entry per message copy, oldest first: the last 65536 sends
          of the run (the provenance ring's capacity) *)
}

val run : Cex.t -> t

type mismatch = {
  at : float;
  src : int;
  dst : int;
  expected : float;
  actual : float;
}

val diff_provenance : Cex.t -> Csync_obs.Monitor.Prov.entry list -> mismatch list
(** Event-by-event diff of a replay's recorded delay choices against the
    counterexample's schedule; empty iff the replay followed it exactly. *)
