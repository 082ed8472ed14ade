(** Shared scaffold for round-based "collect estimates, then average"
    baselines (Lamport-Melliar-Smith CNV and Mahaney-Schneider).

    Both algorithms run the same round structure as Welch-Lynch: at logical
    time T^i each process broadcasts its clock value, collects the other
    processes' values for a bounded window, and applies an adjustment.  They
    differ only in the averaging rule, supplied here as a function from the
    estimate array to the adjustment.

    Estimates: on receiving value [tv] from q at local time [l], the process
    stores EST[q] = tv + delta - l, its estimate of (q's clock - own clock).
    Unlike Welch-Lynch's ARR, estimates are cleared every round (CNV
    re-reads all clocks each round and substitutes its own value - zero -
    for missing or wild readings). *)

type round_record = {
  round : int;
  adj : float;
  corr_after : float;
  arrivals : int;
}

type state

val est_sentinel : float
(** Value held by never-updated estimate slots (huge, finite). *)

type config = private {
  params : Csync_core.Params.t;
  update : f:int -> float array -> float;
      (** The averaging rule: estimate array (with sentinels) to adjustment. *)
  name : string;
  initial_corr : float;
}

val config :
  params:Csync_core.Params.t ->
  update:(f:int -> float array -> float) ->
  name:string ->
  ?initial_corr:float ->
  unit ->
  config

val create : self:int -> config -> float Csync_process.Cluster.proc * (unit -> state)

val automaton : self_hint:int -> config -> (state, float) Csync_process.Automaton.t

val corr : state -> float

val rounds_completed : state -> int

val history : state -> round_record list
(** Oldest first. *)
