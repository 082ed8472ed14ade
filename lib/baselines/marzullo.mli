(** Marzullo's interval-based time service [M] (Section 10).

    Each process maintains an interval of local-time offsets guaranteed to
    contain "true time minus its own clock", whose width grows with drift
    and shrinks at synchronization.  Each round, processes exchange their
    clock value and current error bound; a receiver turns each message
    into an offset interval (widened by the delay uncertainty) and runs
    {e Marzullo's intersection algorithm}: find the point covered by the
    largest number of source intervals (at least n - f of them when only f
    sources lie).  The midpoint of the best-covered segment becomes the
    adjustment, and the segment's half-width the new error bound.

    The paper notes that [M]'s own analysis is probabilistic and hard to
    compare with worst-case bounds; this implementation lets us {e measure}
    it under identical conditions (experiment E5).

    Messages carry (clock value, claimed error bound). *)

val best_interval : (float * float) list -> int * (float * float)
(** [best_interval intervals] returns the maximum number of intervals
    sharing a common point and (the widest) segment attained by that
    maximum.  Classic endpoint-sweep algorithm, O(m log m).
    @raise Invalid_argument on an empty list or an interval with
    [lo > hi]. *)

type round_record = {
  round : int;
  adj : float;
  corr_after : float;
  error_after : float;  (** the maintained error bound after the round *)
  support : int;  (** how many source intervals agreed *)
}

type state

type config

val config :
  params:Csync_core.Params.t -> ?initial_corr:float -> unit -> config
(** Every process starts with error beta + eps: the initial offset
    bound. *)

val create : self:int -> config -> (float * float) Csync_process.Cluster.proc * (unit -> state)

val automaton :
  self_hint:int -> config -> (state, float * float) Csync_process.Automaton.t

val corr : state -> float

val error_bound : state -> float

val rounds_completed : state -> int

val history : state -> round_record list
(** Oldest first. *)
