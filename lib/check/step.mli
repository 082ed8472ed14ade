(** The checker's transition relation: one protocol round as a fresh
    mini-simulation of the real stack.

    Rather than re-implementing the algorithm abstractly, each transition
    instantiates the production [Maintenance] automata (seeded at the round
    boundary via [state_for_rejoin]) on the production [Cluster]/[Engine],
    injects the chosen per-link delays and Byzantine agenda, runs to just
    past the round's update, and reads the resulting corrections back.
    Soundness of the round boundary: at scope (rho = 0) the only state a
    round hands to the next is CORR - with n - f senders heard, a stale
    arrival-array entry is older than every fresh one, and
    [Maintenance.average_heard] reduces it away like the never-heard
    sentinel (the checker-vs-replay test in [test_check.ml] exercises this).

    Precondition: the abstraction is exact while the boundary CORR spread
    stays within beta, so every nonfaulty broadcast lands inside every
    receiver's wait window (Lemma 5).  In-theorem (n >= 3f+1) scopes
    maintain this invariant round over round; in the deliberately broken
    n = 3f scopes a state can exceed it, after which a missed nonfaulty
    message leaves a sentinel in the mini-simulation's ARR where the
    continuous run holds a stale value, and the two need not be bit-equal.
    The explorer stops at the first violating depth, which is reached
    before such states are ever expanded. *)

type outcome = {
  corrs : float array;  (** post-update CORR, indexed by nonfaulty pid *)
  adjs : float array;  (** the ADJ each applied this round *)
  completed : bool array;  (** whether each finished its update *)
}

val round_start : Scope.t -> int -> float
(** T_r in real time (= local time: clocks are perfect at scope). *)

val run_round :
  scope:Scope.t ->
  round:int ->
  corrs:float array ->
  byz_sends:Byz.send list ->
  delay:(src:int -> dst:int -> float) ->
  outcome
(** One maintenance round from the given boundary state.  [delay] gives the
    latency of each nonfaulty-to-nonfaulty message (process-id indexed,
    self included); Byzantine-involved links are fixed at delta - the
    attacker's lever is its send time, and what it hears is irrelevant. *)

type reint_outcome = {
  m_corrs : float array;  (** maintainers' post-round CORR *)
  rejoiner : Csync_core.Reintegration.state;  (** carried to the next round *)
  joined : bool;
  r_corr : float;  (** the rejoiner's CORR (garbage until joined) *)
}

val fresh_rejoiner :
  scope:Scope.t -> garbage:float -> Csync_core.Reintegration.state
(** A just-recovered process with an arbitrary correction, about to start
    observing (Section 9.1). *)

val run_reintegration_round :
  scope:Scope.t ->
  round:int ->
  corrs:float array ->
  rejoiner:Csync_core.Reintegration.state ->
  delay_to_rejoiner:(src:int -> float) ->
  reint_outcome
(** One round of steady maintainers plus the rejoiner.  Only the delays of
    maintainer-to-rejoiner messages vary (the choice points); maintainer
    traffic runs at delta, covered separately by the agreement scopes.
    [rejoiner] is not consumed: the round runs on a private copy, so the
    explorer may expand several delay columns from one state. *)
