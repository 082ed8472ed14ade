(** Algorithm parameters and the Section 5.2 parameter calculus.

    A parameter record bundles the system constants fixed by the hardware
    (rho: drift bound; delta: median message delay; eps: delay uncertainty)
    with the designer-chosen constants (P: round length in local time; beta:
    closeness, in real time, with which nonfaulty processes reach each
    round; T0: local time of the first round; n, f).

    {!check} enforces the sufficient conditions the correctness proof needs:

    - n >= 3f + 1 (assumption A2; [DHS] impossibility otherwise),
    - delta > eps >= 0 (assumption A3),
    - P >= 3(1+rho)(beta+eps) + rho*delta           (Lemma 12), and
      P >= (1+rho)(2 beta + delta + 2 eps) + rho*delta  (Lemma 8),
    - P <= beta/(4 rho) - eps/rho - 2 beta - delta - 2 eps - rho (beta+delta+eps)
      (Lemma 11; vacuous when rho = 0),
    - the beta self-consistency inequality of Section 5.2.

    The derived quantities are the paper's closed forms: gamma (Theorem 16),
    lambda and the validity coefficients (Theorem 19), and the adjustment
    bound (Lemma 7 / Theorem 4(a)). *)

type t = private {
  n : int;  (** number of processes *)
  f : int;  (** maximum number of faulty processes *)
  rho : float;  (** drift-rate bound *)
  delta : float;  (** median message delay *)
  eps : float;  (** delay uncertainty: delays lie in [delta-eps, delta+eps] *)
  beta : float;  (** real-time closeness of round starts *)
  big_p : float;  (** round length P, in local-clock time *)
  t0 : float;  (** local time of round 0 (T^0) *)
}

type error =
  | Bad_counts of string
  | Bad_delay of string
  | Bad_rho of string
  | P_too_small of { minimum : float }
  | P_too_large of { maximum : float }
  | Beta_inconsistent of { minimum : float }

val pp_error : Format.formatter -> error -> unit

val make :
  n:int ->
  f:int ->
  rho:float ->
  delta:float ->
  eps:float ->
  beta:float ->
  big_p:float ->
  ?t0:float ->
  unit ->
  (t, error list) result
(** Validated constructor. [t0] defaults to 0. *)

val make_exn :
  n:int ->
  f:int ->
  rho:float ->
  delta:float ->
  eps:float ->
  beta:float ->
  big_p:float ->
  ?t0:float ->
  unit ->
  t
(** @raise Invalid_argument listing the violated conditions. *)

val unchecked :
  n:int ->
  f:int ->
  rho:float ->
  delta:float ->
  eps:float ->
  beta:float ->
  big_p:float ->
  ?t0:float ->
  unit ->
  t
(** Constructor without the proof-side conditions, for experiments that
    deliberately violate them (e.g. n = 3f in E8).  Still requires basic
    sanity: positive n, nonnegative f, delta >= eps >= 0, positive P. *)

val check : t -> error list
(** Empty iff all Section 5.2 conditions hold. *)

val auto :
  n:int ->
  f:int ->
  rho:float ->
  delta:float ->
  eps:float ->
  big_p:float ->
  ?t0:float ->
  unit ->
  (t, error list) result
(** Choose the smallest admissible beta for the given P, times 1.05 for
    floating-point head-room. *)

(** {1 Derived bounds (Section 5.2 solvers)} *)

val p_min : rho:float -> delta:float -> eps:float -> beta:float -> float
(** Smallest admissible round length for the given beta. *)

val p_max : rho:float -> delta:float -> eps:float -> beta:float -> float
(** Largest admissible round length for the given beta ([infinity] when
    rho = 0). *)

val beta_min : rho:float -> delta:float -> eps:float -> big_p:float -> float
(** Smallest beta compatible with round length [big_p]: the larger of the
    Lemma 11 requirement and the self-consistency fixpoint.  Approximately
    4 eps + 4 rho P (the paper's rule of thumb). *)

val beta_approx : rho:float -> eps:float -> big_p:float -> float
(** The paper's first-order approximation 4 eps + 4 rho P. *)

(** {1 Derived quantities of the analysis} *)

val wait_window : t -> float
(** (1+rho)(beta+delta+eps): the local-time interval each process waits to
    collect the round's messages (Section 4.1). *)

val gamma : t -> float
(** Theorem 16 agreement bound:
    beta + eps + rho(7 beta + 3 delta + 7 eps)
    + 8 rho^2 (beta+delta+eps) + 4 rho^3 (beta+delta+eps). *)

val adjustment_bound : t -> float
(** Lemma 7 / Theorem 4(a): |ADJ| <= (1+rho)(beta+eps) + rho*delta. *)

val lambda : t -> float
(** Shortest round in real time: (P - (1+rho)(beta+eps) - rho*delta)/(1+rho)
    (Section 8). *)

val validity : t -> float * float * float
(** Theorem 19's (alpha1, alpha2, alpha3) =
    (1 - rho - eps/lambda, 1 + rho + eps/lambda, eps). *)

val round_start : t -> int -> float
(** T^i = T0 + i P. *)

val update_time : t -> int -> float
(** U^i = T^i + (1+rho)(beta+delta+eps). *)

val pp : Format.formatter -> t -> unit
