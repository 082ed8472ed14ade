(** Sparse communication topologies for the cluster wiring.

    A graph is compressed in-adjacency over [0 .. n-1]: [in_neighbor t
    ~dst j] is the [j]-th process destination [dst] {e hears}.  Every
    family except {!ring} is symmetric (in-edges = out-edges); the ring
    keeps the directed predecessor orientation of the original
    struct-of-arrays model so replacing the hardcoded wiring with
    [Graph.ring] leaves the scale stack's row layout, delay hashes and
    checksums byte-identical.

    Construction is a pure function of the named parameters (plus [seed]
    for {!expander}); the same arguments always produce the same arrays.
    Every generator writes the CSR arrays directly and allocates O(n + m)
    words for [m] directed edges: the offsets, the adjacency and at most
    one trimming copy of it, with no per-node lists.

    Neighbour order: {!ring} keeps its predecessor order [dst - 1, dst - 2,
    ...]; every other family lists each node's in-neighbours ascending,
    without the node itself and without repeats.

    Transposed views (out-edges, broadcast lists) are derived lazily and
    cached in the value. *)

type kind = Ring | Grid | Torus | Expander | Hier_tree | Complete

val kind_name : kind -> string

type t

(** {2 Generators} *)

val ring : n:int -> degree:int -> t
(** Directed circulant: [dst] hears its [degree] predecessors
    [dst - 1, dst - 2, ..., dst - degree] (mod [n]), in that order - the
    exact wiring (and neighbor order) the scale stack hardcoded before
    topologies existed.
    @raise Invalid_argument unless [n > 1] and [1 <= degree <= n - 1]. *)

val complete : n:int -> t
(** Full mesh: every process hears every other, ascending.  Broadcast
    lists are [0 .. n-1] for every source - the legacy mesh order.
    @raise Invalid_argument unless [n > 1]. *)

val grid : rows:int -> cols:int -> t
(** 2-d grid (no wraparound): up/down/left/right neighbors, symmetric,
    degree 2..4 (1..2 on a 1-wide grid).  Node [p] sits at row
    [p / cols], column [p mod cols].
    @raise Invalid_argument unless [rows >= 1], [cols >= 1] and
    [rows * cols > 1]. *)

val torus : rows:int -> cols:int -> t
(** {!grid} with wraparound: 4-regular.  A dimension of 1 or 2 makes some
    wrapped neighbours the node itself or repeats; both are dropped.
    @raise Invalid_argument unless [rows >= 1], [cols >= 1] and
    [rows * cols > 1] (as {!grid}). *)

val expander : n:int -> degree:int -> seed:int -> t
(** Deterministic random circulant: generator 1 (connectivity) plus
    [degree/2 - 1] generators drawn from the seeded hash stream; node [p]
    is adjacent to [p +- g] for each.  Symmetric, connected,
    [2 * max 1 (min (degree/2) ((n-1)/2))]-regular (a degree past [n - 1]
    is capped), and a pure function of [(n, degree, seed)].
    @raise Invalid_argument unless [n > 3] and [degree >= 2]. *)

val hier_tree : n:int -> cluster:int -> branching:int -> t
(** Hierarchical synchronization clusters: consecutive blocks of
    [cluster] nodes are cliques (a full Welch-Lynch mesh each); the first
    node of each block - its leader - joins a [branching]-ary tree of
    leaders stitching the clusters together: cluster [c]'s leader hears
    the leader of cluster [(c - 1) / branching].  [cluster >= n] makes one
    clique of every node.
    @raise Invalid_argument unless [n > 1], [cluster >= 2] and
    [branching >= 1]. *)

(** {2 Queries} *)

val n : t -> int
val kind : t -> kind
val seed : t -> int

val edges : t -> int
(** Directed edge count, [sum of in-degrees]. *)

val in_degree : t -> int -> int
val max_in_degree : t -> int
val min_in_degree : t -> int

val in_neighbor : t -> dst:int -> int -> int
(** [in_neighbor t ~dst j] is the [j]-th process [dst] hears,
    [0 <= j < in_degree t dst]. *)

val iter_in : t -> dst:int -> (int -> unit) -> unit

val in_csr : t -> int array * int array
(** [(off, adj)]: the graph's own compressed in-adjacency, not a copy.
    [dst]'s in-neighbours are [adj.(off.(dst)) .. adj.(off.(dst + 1) - 1)],
    in {!in_neighbor} order; [off] has [n + 1] entries.  For hot loops
    that cannot afford a call per edge.  Read-only: the arrays are shared
    with every user of the graph, and writing to them corrupts it. *)

val out_degree : t -> int -> int
val iter_out : t -> src:int -> (int -> unit) -> unit
(** Out-neighbors (who hears [src]), ascending. *)

val bcast_degree : t -> int -> int
val iter_bcast : t -> src:int -> (int -> unit) -> unit
(** Broadcast targets of [src]: itself plus its out-neighbors, merged
    ascending.  On {!complete} this is [0 .. n-1] - the full-mesh
    broadcast loop, byte for byte. *)

val is_symmetric : t -> bool

val is_connected : t -> bool
(** Over the undirected skeleton. *)

val distances : t -> from:int -> int array
(** BFS hop counts over the undirected skeleton; [-1] = unreachable. *)

val distance : t -> int -> int -> int option

val eccentricity : t -> from:int -> int

val diameter : t -> int
(** Exact (all-pairs BFS) up to a few thousand nodes; a double-sweep BFS
    lower bound above that (exact on trees, tight on the circulant
    families).  [max_int] when disconnected. *)

val tolerated_faults : t -> int
(** Weakest neighborhood's Byzantine resilience under the degradation
    rule: [min over p of in_degree(p) / 3] (a full-attendance row holds
    [in_degree + 1] estimates and the reduced midpoint survives
    [(count - 1) / 3] traitors). *)

val pp : Format.formatter -> t -> unit
