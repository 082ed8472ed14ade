(** Struct-of-arrays fault-tolerant averaging (Section 4.1 at scale).

    {!Csync_core.Maintenance} computes each round's correction through
    {!Csync_multiset}: one sorted array per process per round.  At n in the
    10^5 range that representation is cache-hostile - n small allocations
    per round, pointer-chased.  This module applies the same
    reduced-midpoint update over a single flat slab of estimates,
    [width] floats per process, sorted and averaged in place with zero
    allocation.

    A row that heard [count] estimates discards [g = min f ((count - 1) / 3)]
    extremes on each side, so partially-heard rows (crashed neighbours,
    sparse topologies) still produce a defined correction.  This matches
    {!Maintenance.average_heard} at full attendance ([count = n] and
    [f < n/3]: the paper's [mid o reduce]) and below [n - f] heard only. *)

val g_of : f:int -> count:int -> int
(** Per-row discard width: [min f ((count - 1) / 3)] (0 for an empty row),
    i.e. the most extremes a [count]-element row can shed per side while
    keeping a nonempty, majority-correct core. *)

val sort_row : float array -> off:int -> len:int -> unit
(** Sort [slab.(off .. off+len-1)] ascending, in place and stably, with
    [-0.] and [0.] equal.  A row of at most 32 values takes a
    comparison-count (rank) sort: it is copied to a scratch array, each
    pair is compared once without a branch, and each value is written
    straight to its rank.  Its cost is quadratic, so a longer row takes
    an insertion sort instead (O(len + inversions)); so does a row
    holding a NaN, whose ranks could collide.  Both give the same bits
    on every NaN-free row.  The scratch is one fixed pair of arrays per
    domain, so sweeps running at once on the harness's [Pool] workers
    never share it, and a warm sort allocates nothing. *)

val mid_row : float array -> off:int -> count:int -> f:int -> float
(** Sort one row in place and return its reduced midpoint
    [(row.(g) + row.(count-1-g)) / 2] with [g = g_of ~f ~count].
    Agrees with [Csync_multiset.mid_reduced ~f:g] on the same values.
    @raise Invalid_argument if [count <= 0]. *)

val sweep_rows :
  slab:float array -> width:int -> counts:int array -> f:int -> lo:int ->
  hi:int -> out:float array -> unit
(** Row [i] of the slab is [slab.(i*width .. i*width + counts.(i) - 1)].
    Sorts rows [lo .. hi - 1] in place and writes row [i]'s reduced
    midpoint to [out.(i)], indexed like [counts]; empty rows
    ([counts.(i) = 0]) write [nan].  Other rows and other [out] cells
    are not touched, so disjoint ranges of one slab may be swept
    concurrently into one [out], each from its own domain.  Rows are
    sorted by {!sort_row}: rank sort up to 32 estimates, insertion sort
    past that or on a NaN.  Allocation-free: the test suite sweeps a
    10^4-row slab and checks that it allocates zero words.
    @raise Invalid_argument unless [0 <= lo <= hi <= Array.length counts],
    [out] holds at least [hi] entries, the slab holds [hi * width],
    [f >= 0], and every count in the range is in [0, width]. *)

val sweep :
  slab:float array -> width:int -> counts:int array -> f:int ->
  out:float array -> unit
(** {!sweep_rows} over every row: [lo = 0], [hi = Array.length counts]. *)
