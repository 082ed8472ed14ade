(** Canonical checker states.

    At scope (rho = 0, perfect clocks, zero offsets) the entire protocol
    state at a round boundary is the vector of corrections CORR of the
    nonfaulty processes: physical clocks all read real time, and a stale
    arrival-array entry is older than every one heard since the last update,
    so it is reduced away like the never-heard sentinel.  Two reductions
    keep the state space small, both exact:

    - {b translation}: the round transition commutes with adding a common
      constant to every CORR (arrival times and the averaged midpoint shift
      by the same constant, so ADJ is unchanged), hence states are stored
      with min CORR = 0;
    - {b symmetry}: nonfaulty processes are interchangeable - the Byzantine
      menu is expressed in terms of {e ranks} in the sorted CORR order, so
      states that are permutations of one another have identical futures,
      and states are stored sorted.

    Keys are the raw IEEE-754 bits, so dedup is exact equality - always
    sound (it can only under-merge, never confuse distinct states). *)

val canonical : symmetry:bool -> translate:bool -> float array -> float array
(** A fresh canonical copy: translated so min = 0 (if [translate]), sorted
    ascending (if [symmetry]). *)

val sort_permutation : float array -> int array
(** [perm] with [perm.(rank) = pid]: the stable (by pid) sort order of the
    given corrections.  Maps rank-based Byzantine/delay choices made on a
    canonical state back onto concrete process ids. *)

val key : ?round:int -> float array -> string
(** Exact hash key: the concatenated IEEE-754 bit patterns (plus the round
    index when given - needed when a property is round-dependent, e.g. the
    validity envelope). *)

val spread : float array -> float
(** max - min. *)
