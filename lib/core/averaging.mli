(** Fault-tolerant averaging functions (Section 4.1 and the end of
    Section 7).

    The heart of the algorithm: a multiset of n estimates, up to f of which
    are adversarial, is reduced by discarding the f largest and f smallest
    values, and an ordinary average of the remainder is taken — the
    function of the Dolev-Lynch-Pinter-Stark-Weihl synchronous
    approximate-agreement algorithm [DLPSW], which the paper adapts to
    clocks.  The paper uses the {e midpoint} (halving the error each
    round) and notes that the {e mean} converges at rate ~ f/(n-2f),
    approaching a 2 eps floor for large n.  The {e median} is included as
    a natural third point, and reduction can be disabled for the E12
    ablation (showing that without it no ordinary average survives
    Byzantine values). *)

type combine = Midpoint | Mean | Median

type t = { combine : combine; reduce : bool }

val midpoint : t
(** The paper's choice: mid o reduce. *)

val mean : t
(** mean o reduce: the Section 7 variant. *)

val median : t
(** median o reduce. *)

val unprotected : combine -> t
(** No reduction - for ablations only. *)

val apply : t -> f:int -> Csync_multiset.t -> float
(** Apply to a multiset of estimates.
    @raise Invalid_argument if the multiset has fewer than [2 f + 1]
    elements and reduction is enabled, or is empty. *)

val convergence_rate : t -> n:int -> f:int -> float
(** The per-round error contraction factor the analysis predicts:
    1/2 for the midpoint (Lemma 9), f/(n - 2f) for the mean (Section 7),
    1/2 for the median (same argument as the midpoint), and 1.0 (no
    contraction guarantee) for unprotected averages. *)

val name : t -> string

val pp : Format.formatter -> t -> unit
