(** Struct-of-arrays cluster model: one synchronization round at
    n ~ 10^5.

    {!Cluster} represents each process as an automaton closure - the right
    fidelity for the paper's experiments at n <= a few hundred, but memory-
    and cache-hostile five orders of magnitude up.  Here the whole system
    is four flat arrays (drift rate, hardware offset, correction, status)
    plus two pure functions of [(seed, src, dst, round)]: the topology
    and the per-link delay, drawn deterministically from the paper's
    [delta - eps, delta + eps] window by an integer hash.  The only other
    state is round scratch that {!prepare} allocates on first use: the
    estimate rows, their counts, a midpoint store for the round driver's
    sweep, and a table of this round's {!report_time}s - a cache of the
    four arrays, refilled after any mutation.  A row depends only on the
    round, so any contiguous range of destinations can be simulated
    independently - the basis of {!Csync_harness}'s sharded driver.

    Topology is any {!Csync_topo.Graph} - by default the directed
    predecessor ring the model originally hardcoded (process [p] hears
    [p-1 .. p-degree] mod n plus itself), reproduced neighbor-for-neighbor
    by [Graph.ring] so default-model rows and checksums are
    byte-identical to the hardcoded era.  The correction [mode] is either
    the full reduced-midpoint jump (Welch-Lynch) or the gradient
    neighbor-averaging rule ({!Csync_topo.Gradient}).  Faults are crash
    (broadcasts nothing) or pull (broadcasts [skew] late, a simple
    Byzantine pattern); the per-row discard is {!Csync_core.Sweep.g_of},
    as in {!Csync_core.Maintenance.average_heard} below n - f heard. *)

type mode =
  | Midpoint  (** jump all the way to the row's reduced midpoint *)
  | Gradient_avg of float
      (** move [gain] of the way toward it ({!Csync_topo.Gradient.target}) *)

type t

val create :
  ?graph:Csync_topo.Graph.t ->
  ?degree:int ->
  ?f:int ->
  ?seed:int ->
  ?rho:float ->
  ?delta:float ->
  ?eps:float ->
  ?period:float ->
  ?dispersion:float ->
  ?mode:mode ->
  n:int ->
  unit ->
  t
(** Fresh system of [n] processes at round 0: drift rates uniform in
    [-rho, rho], hardware offsets uniform in [0, dispersion], corrections
    zero, everyone nonfaulty - all drawn from [seed].  [graph] is who
    hears whom; when absent, the historical ring of in-degree [degree]
    (default 8, clamped to [n - 1]).  [f] (default 2) is the per-row
    fault bound; [period] the logical time between round targets; [mode]
    (default {!Midpoint}) the correction rule.
    @raise Invalid_argument unless [n > 1], [0 <= eps < delta], the graph
    (when given) has exactly [n] nodes, and a [Gradient_avg] gain is in
    (0, 1]. *)

val n : t -> int
val graph : t -> Csync_topo.Graph.t
val mode : t -> mode

val degree : t -> int
(** Max in-degree of the topology ([width - 1]); on the default ring,
    the [degree] passed to {!create}. *)

val f : t -> int
val round : t -> int

val width : t -> int
(** Estimate-row width, max in-degree + 1 (worst-case in-neighbours plus
    self).  Rows of lower-degree destinations simply hold fewer
    estimates. *)

val crash : t -> int -> unit
(** Crash fault: the process stops broadcasting (and, being dead, its own
    row is no longer simulated).  Marks the report-time table stale. *)

val set_pull : t -> int -> float -> unit
(** Pull fault: the process broadcasts [skew] later than its clock says,
    dragging naive averages; it never applies corrections itself.  Marks
    the report-time table stale. *)

val is_ok : t -> int -> bool

val in_degree : t -> int -> int

val in_neighbor : t -> dst:int -> int -> int
(** [in_neighbor t ~dst j] is the source of [dst]'s [j]-th in-edge
    (topology adjacency order; [(dst - 1 - j) mod n] on the default
    ring). *)

val broadcast_time : t -> int -> float
(** Real time at which the process' logical clock reaches the current
    round's target - where a nonfaulty process broadcasts. *)

val report_time : t -> int -> float
(** {!broadcast_time}, plus the pull skew if the process is pull-faulty:
    the round start the rest of the system actually observes. *)

val spread : t -> float
(** Max minus min {!broadcast_time} over nonfaulty processes: the paper's
    per-round dispersion B (the {e global} skew). *)

val local_skew : t -> float
(** Worst {!broadcast_time} difference across a graph edge between
    nonfaulty endpoints - the quantity the gradient property bounds per
    hop ({!Csync_topo.Gradient.local_skew}). *)

val local_skew_at : t -> int -> float
(** One destination's local skew: the worst {!broadcast_time} difference
    against its nonfaulty in-neighbours (0 for faulty processes or
    isolated rows).  Pure per-destination read - telemetry histograms
    fill from it shard-locally without affecting the run. *)

val link_delay : t -> src:int -> dst:int -> float
(** The current round's network delay on edge [src -> dst] - the same
    deterministic draw from [[delta - eps, delta + eps]] that
    {!run_shard} fills rows with, exposed so telemetry can histogram the
    delay distribution without replaying the round. *)

val prepare : t -> unit
(** Make the model ready for {!run_shard}: allocate its row store
    ([n * width] floats, [n] counts), midpoint store ([n] floats) and
    report-time table on first use, and refill the table ([n] divisions)
    if {!crash}, {!set_pull}, {!apply} or {!advance} ran since the last
    fill.  Idempotent: on a
    prepared model it only reads a flag.  {!create} allocates none of
    this, so models that never run a round never pay for it. *)

type shard = {
  lo : int;
  hi : int;
  count : int;  (** events: arrivals plus one round close per live row *)
  slab : float array;
      (** The model's whole row store, [n * width] floats: destination
          [dst]'s estimates start at [dst * width], unsorted; only rows
          [lo .. hi - 1] are this shard's. *)
  counts : int array;
      (** The model's per-destination estimate counts ([n] entries,
          indexed by destination; 0 for a faulty row). *)
  mids : float array;
      (** The model's midpoint store, [n] floats indexed by destination,
          all [nan] when {!prepare} allocates it.  The model never reads
          or writes it after that: it is scratch lent to the round driver,
          which sweeps rows [lo .. hi - 1] into cells [lo .. hi - 1]
          ({!Csync_core.Sweep.sweep_rows}) and hands the whole store to
          {!apply}.  A cell stays valid until the next sweep over the
          same destination, and is the same array for the model's
          lifetime, so a warm round allocates no midpoints. *)
}

val run_shard : t -> lo:int -> hi:int -> shard
(** Simulate the current round for destinations [lo .. hi - 1]: each
    nonfaulty destination's row gets its own exact {!broadcast_time} in
    slot 0, then one estimate [report_time src + delay - delta] per
    non-crashed in-neighbour, in adjacency order.  Faulty rows (crashed
    or pull) get count 0.  Row contents depend only on the round, never
    on the shard cut.

    The rows are written in place into the model's store (calls
    {!prepare} first), so they stay valid until the next [run_shard]
    over the same destinations; the model's simulated state is not
    touched.  Concurrent calls on disjoint ranges of one round write
    disjoint cells and are safe once the model is prepared - call
    {!prepare} before fanning shards out to other domains.
    @raise Invalid_argument unless [0 <= lo < hi <= n]. *)

val apply : t -> lo:int -> float array -> unit
(** [apply t ~lo mids] retargets each nonfaulty process [lo + i]'s
    broadcast toward its row midpoint [mids.(i)] by adjusting its
    correction variable - all the way under {!Midpoint}, a [gain]
    fraction of the way under {!Gradient_avg} ([nan] entries - empty
    rows - are skipped).  Call after every shard of the round has been
    swept, then {!advance}.  Needs no {!prepare}; marks the report-time
    table stale. *)

val advance : t -> unit
(** Move to the next round (later round targets, fresh hashed delays).
    Marks the report-time table stale. *)

val corr : t -> int -> float
(** Current correction variable (for state checksums and tests). *)
