(* Sparse communication topologies as compressed in-adjacency.

   The cluster wiring used to be implicit: a full mesh in the record-based
   cluster, a hardcoded predecessor ring in the struct-of-arrays model.
   This module makes the graph a first-class value - CSR arrays, nothing
   per-node boxed - so the same n = 10^5 machinery can run a ring, a
   torus, a seeded random circulant expander, or a hierarchy of
   synchronization cliques, and the checker-facing full mesh stays one
   constructor among the others.

   Orientation: [adj] stores *in*-neighbors - the processes a destination
   hears.  Every family except [ring] is symmetric (in = out); the ring
   keeps PR 7's directed predecessor orientation so the scale stack's
   row layout and delay hashes are byte-identical to the hardcoded wiring
   it replaces.  The transpose (out-edges, i.e. who hears me) and the
   broadcast lists (self + out-neighbors, ascending) are derived lazily
   and cached - generators never pay for them. *)

type kind = Ring | Grid | Torus | Expander | Hier_tree | Complete

let kind_name = function
  | Ring -> "ring"
  | Grid -> "grid"
  | Torus -> "torus"
  | Expander -> "expander"
  | Hier_tree -> "hier_tree"
  | Complete -> "complete"

type t = {
  kind : kind;
  n : int;
  seed : int;  (* generator seed; 0 for the deterministic families *)
  off : int array;  (* n + 1 CSR offsets into [adj] *)
  adj : int array;  (* in-neighbors of p at off.(p) .. off.(p+1) - 1 *)
  mutable out_csr : (int array * int array) option;  (* transpose, lazy *)
  mutable bcast_csr : (int array * int array) option;  (* self + out, lazy *)
}

let n t = t.n
let kind t = t.kind
let seed t = t.seed
let edges t = Array.length t.adj

let in_degree t p = t.off.(p + 1) - t.off.(p)

let in_neighbor t ~dst j = t.adj.(t.off.(dst) + j)

let iter_in t ~dst f =
  for i = t.off.(dst) to t.off.(dst + 1) - 1 do
    f (Array.unsafe_get t.adj i)
  done

let in_csr t = (t.off, t.adj)

let fold_degrees t g init =
  let acc = ref init in
  for p = 0 to t.n - 1 do
    acc := g !acc (t.off.(p + 1) - t.off.(p))
  done;
  !acc

let max_in_degree t = fold_degrees t Int.max 0
let min_in_degree t = fold_degrees t Int.min max_int

(* ---------- construction ----------

   Every generator writes the CSR arrays directly, in O(n + m) words.
   [build] owns [off] and an [adj] of [cap] slots, an upper bound on the
   candidates over all nodes.  For each node in turn, [fill adj w p]
   writes p's candidate in-neighbours into the free tail of [adj] from
   slot [w] (the scratch; [w] is where p's row starts) and returns how
   many it wrote.  A [sorted] family's candidates are then insertion-
   sorted in place and compacted, dropping p itself and repeats; the ring
   and the expander write their rows in final order and keep them.  When
   candidates were dropped, one trimming copy of [adj] closes the build. *)

(* Insertion-sort adj.(w) .. adj.(w + k - 1) ascending, then compact the
   run in place without [self] and repeats; returns the end of the kept
   run.  The grid and torus write four candidates, the complete graph and
   the hierarchy write theirs already ascending, so this is linear. *)
let sort_dedup (adj : int array) ~self w k =
  for i = w + 1 to w + k - 1 do
    let x = adj.(i) in
    let j = ref (i - 1) in
    while !j >= w && adj.(!j) > x do
      adj.(!j + 1) <- adj.(!j);
      decr j
    done;
    adj.(!j + 1) <- x
  done;
  let e = ref w in
  for i = w to w + k - 1 do
    let q = adj.(i) in
    if q <> self && (!e = w || adj.(!e - 1) <> q) then begin
      adj.(!e) <- q;
      incr e
    end
  done;
  !e

let build ~kind ~seed ~n ~cap ~sorted fill =
  if n <= 0 then invalid_arg "Graph: empty node set";
  let off = Array.make (n + 1) 0 in
  let adj = Array.make cap 0 in
  for p = 0 to n - 1 do
    let w = off.(p) in
    let k = fill adj w p in
    off.(p + 1) <- (if sorted then sort_dedup adj ~self:p w k else w + k)
  done;
  let m = off.(n) in
  let adj = if m = cap then adj else Array.sub adj 0 m in
  for i = 0 to m - 1 do
    let q = adj.(i) in
    if q < 0 || q >= n then invalid_arg "Graph: neighbor out of range"
  done;
  { kind; n; seed; off; adj; out_csr = None; bcast_csr = None }

(* Writes [q] at candidate slot [k] of the row starting at [w]. *)
let[@inline] push (adj : int array) w k q =
  adj.(w + k) <- q;
  k + 1

let ring ~n ~degree =
  if n <= 1 then invalid_arg "Graph.ring: need n > 1";
  if degree < 1 || degree > n - 1 then
    invalid_arg "Graph.ring: need 1 <= degree <= n - 1";
  (* PR 7's orientation and order: dst hears its [degree] predecessors
     dst - 1, dst - 2, ..., dst - degree (mod n).  The scale stack's slot
     layout and per-link delay hashes key off this exact sequence. *)
  build ~kind:Ring ~seed:0 ~n ~cap:(n * degree) ~sorted:false
    (fun adj w dst ->
      for j = 0 to degree - 1 do
        let q = dst - 1 - j in
        adj.(w + j) <- (if q < 0 then q + n else q)
      done;
      degree)

let complete ~n =
  if n <= 1 then invalid_arg "Graph.complete: need n > 1";
  build ~kind:Complete ~seed:0 ~n ~cap:(n * (n - 1)) ~sorted:true
    (fun adj w p ->
      let k = ref 0 in
      for q = 0 to n - 1 do
        if q <> p then k := push adj w !k q
      done;
      !k)

(* Neighbouring index on a cycle of [len], without [mod]. *)
let[@inline] prev i len = if i = 0 then len - 1 else i - 1
let[@inline] next i len = if i = len - 1 then 0 else i + 1

let grid_like ~kind ~rows ~cols ~wrap =
  if rows <= 0 || cols <= 0 || rows * cols <= 1 then
    invalid_arg "Graph.grid: need rows * cols > 1";
  let n = rows * cols in
  (* Up, down, left, right; on a torus with a dimension of 1 or 2 some of
     these are p itself or repeats, which [build] drops. *)
  build ~kind ~seed:0 ~n ~cap:(4 * n) ~sorted:true (fun adj w p ->
      let r = p / cols and c = p mod cols in
      let up = (prev r rows * cols) + c and down = (next r rows * cols) + c in
      let left = (r * cols) + prev c cols and right = (r * cols) + next c cols in
      let k = if wrap || r > 0 then push adj w 0 up else 0 in
      let k = if wrap || r < rows - 1 then push adj w k down else k in
      let k = if wrap || c > 0 then push adj w k left else k in
      if wrap || c < cols - 1 then push adj w k right else k)

let grid ~rows ~cols = grid_like ~kind:Grid ~rows ~cols ~wrap:false

let torus ~rows ~cols = grid_like ~kind:Torus ~rows ~cols ~wrap:true

(* Same splitmix-style mixer as the Soa model: deterministic across 64-bit
   platforms, allocation-free. *)
let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1F123BB5159A55E5 in
  x lxor (x lsr 32)

(* Whether [x] is among a.(lo) .. a.(hi - 1). *)
let mem_slice (a : int array) lo hi x =
  let rec go i = i < hi && (a.(i) = x || go (i + 1)) in
  go lo

(* Random circulant: node p is adjacent to p +- g for each generator g.
   Generator 1 is always included (connectivity for free); the rest are
   drawn from the seeded hash stream over [2, (n-1)/2], rejecting
   duplicates, so the graph is symmetric, 2k-regular, connected, and a
   pure function of (n, degree, seed).  Random circulants have the small
   diameter and spectral gap the "expander" role needs without the
   bookkeeping of rewiring a random matching into connectivity. *)
let expander ~n ~degree ~seed =
  if n <= 3 then invalid_arg "Graph.expander: need n > 3";
  if degree < 2 then invalid_arg "Graph.expander: need degree >= 2";
  let half = min (degree / 2) ((n - 1) / 2) in
  let half = max half 1 in
  let gens = Array.make half 1 in
  let hseed = mix (seed + (mix n) + 0x706f) in
  let cursor = ref 0 in
  let lo = 2 and hi = (n - 1) / 2 in
  let draw () =
    let h = mix (!cursor + hseed) in
    incr cursor;
    lo + ((h land max_int) mod (hi - lo + 1))
  in
  (* A draw is rejected when an earlier generator (1 included) took it. *)
  for k = 1 to half - 1 do
    gens.(k) <-
      (if hi < lo then 1
       else begin
         let g = ref (draw ()) in
         while mem_slice gens 0 k !g do
           g := draw ()
         done;
         !g
       end)
  done;
  (* The generators are distinct and 1 <= g <= (n-1)/2, so for any two
     g, g' (equal or not) g + g' < n: no p + g meets p or any p - g'
     (mod n), and no run below repeats or hits p.  With them ascending,
     p's in-neighbours come out already sorted, in four ascending runs
     each below the next: the wrapped p + g - n, then p - g, then p + g,
     then the wrapped p - g + n. *)
  Array.sort Int.compare gens;
  build ~kind:Expander ~seed ~n ~cap:(n * 2 * half) ~sorted:false
    (fun adj w p ->
      let k = ref 0 in
      for i = 0 to half - 1 do
        let g = gens.(i) in
        if p + g >= n then k := push adj w !k (p + g - n)
      done;
      for i = half - 1 downto 0 do
        let g = gens.(i) in
        if g <= p then k := push adj w !k (p - g)
      done;
      for i = 0 to half - 1 do
        let g = gens.(i) in
        if p + g < n then k := push adj w !k (p + g)
      done;
      for i = half - 1 downto 0 do
        let g = gens.(i) in
        if g > p then k := push adj w !k (p - g + n)
      done;
      !k)

(* Hierarchical synchronization clusters: consecutive blocks of [cluster]
   nodes form cliques (the per-cluster full mesh a Welch-Lynch instance
   needs), and the first node of each cluster - its leader - joins a
   [branching]-ary tree of leaders that stitches the clusters together.
   Cluster c's parent is cluster (c-1) / branching, so its children are
   c * branching + 1 .. c * branching + branching.  A leader writes its
   parent (an earlier cluster), its clique, then its children (later
   clusters): already ascending, with no repeats. *)
let hier_tree ~n ~cluster ~branching =
  if n <= 1 then invalid_arg "Graph.hier_tree: need n > 1";
  if cluster < 2 then invalid_arg "Graph.hier_tree: need cluster >= 2";
  if branching < 1 then invalid_arg "Graph.hier_tree: need branching >= 1";
  (* [cluster >= n] is one clique; testing it first keeps [n + cluster - 1]
     from overflowing. *)
  let clusters = if cluster >= n then 1 else (n + cluster - 1) / cluster in
  let full = n / cluster and rest = n mod cluster in
  (* Clique edges of the full blocks and the last one, plus both
     directions of each tree edge. *)
  let cap =
    (full * cluster * (cluster - 1)) + (rest * (rest - 1)) + (2 * (clusters - 1))
  in
  build ~kind:Hier_tree ~seed:0 ~n ~cap ~sorted:true (fun adj w p ->
      let c = p / cluster in
      let lo = c * cluster in
      let hi = if clusters - 1 = c then n else lo + cluster in
      let leader = p = lo in
      let k = ref 0 in
      if leader && c > 0 then k := push adj w !k ((c - 1) / branching * cluster);
      for q = lo to hi - 1 do
        if q <> p then k := push adj w !k q
      done;
      if leader && c <= (clusters - 2) / branching then begin
        let first = (c * branching) + 1 in
        let last = first - 1 + min branching (clusters - first) in
        for c' = first to last do
          k := push adj w !k (c' * cluster)
        done
      end;
      !k)

(* ---------- derived views ---------- *)

(* Transpose of the in-CSR: out-neighbors (who hears p), ascending - a
   counting sort over the in-edges, O(n + m). *)
let out_csr t =
  match t.out_csr with
  | Some csr -> csr
  | None ->
    let n = t.n and i_off = t.off and i_adj = t.adj in
    let off = Array.make (n + 1) 0 in
    for i = 0 to Array.length i_adj - 1 do
      let src = i_adj.(i) in
      off.(src + 1) <- off.(src + 1) + 1
    done;
    for p = 0 to n - 1 do
      off.(p + 1) <- off.(p + 1) + off.(p)
    done;
    let adj = Array.make (Array.length i_adj) 0 in
    let next = Array.sub off 0 n in
    (* Walk destinations in ascending order so each source's slice fills
       in ascending destination order. *)
    for dst = 0 to n - 1 do
      for i = i_off.(dst) to i_off.(dst + 1) - 1 do
        let src = i_adj.(i) in
        adj.(next.(src)) <- dst;
        next.(src) <- next.(src) + 1
      done
    done;
    let csr = (off, adj) in
    t.out_csr <- Some csr;
    csr

let out_degree t p =
  let off, _ = out_csr t in
  off.(p + 1) - off.(p)

let iter_out t ~src f =
  let off, adj = out_csr t in
  for i = off.(src) to off.(src + 1) - 1 do
    f (Array.unsafe_get adj i)
  done

(* Broadcast lists: self merged into the ascending out-neighbors.  On the
   complete graph this is exactly 0 .. n-1 for every source - the legacy
   full-mesh broadcast order, byte for byte. *)
let bcast_csr t =
  match t.bcast_csr with
  | Some csr -> csr
  | None ->
    let o_off, o_adj = out_csr t in
    let off = Array.make (t.n + 1) 0 in
    for p = 0 to t.n - 1 do
      off.(p + 1) <- off.(p) + (o_off.(p + 1) - o_off.(p)) + 1
    done;
    let adj = Array.make off.(t.n) 0 in
    for src = 0 to t.n - 1 do
      let w = ref off.(src) in
      let placed = ref false in
      for i = o_off.(src) to o_off.(src + 1) - 1 do
        let dst = o_adj.(i) in
        if (not !placed) && src < dst then begin
          adj.(!w) <- src;
          incr w;
          placed := true
        end;
        adj.(!w) <- dst;
        incr w
      done;
      if not !placed then begin
        adj.(!w) <- src;
        incr w
      end
    done;
    let csr = (off, adj) in
    t.bcast_csr <- Some csr;
    csr

let bcast_degree t p =
  let off, _ = bcast_csr t in
  off.(p + 1) - off.(p)

let iter_bcast t ~src f =
  let off, adj = bcast_csr t in
  for i = off.(src) to off.(src + 1) - 1 do
    f (Array.unsafe_get adj i)
  done

let is_symmetric t =
  let off = t.off and adj = t.adj in
  let ok = ref true in
  for dst = 0 to t.n - 1 do
    for i = off.(dst) to off.(dst + 1) - 1 do
      let src = adj.(i) in
      if not (mem_slice adj off.(src) off.(src + 1) dst) then ok := false
    done
  done;
  !ok

(* ---------- distance queries ----------

   BFS over the undirected skeleton (an edge conducts information in at
   least one direction per round, and every family except the ring is
   symmetric anyway).  One flat queue, one visit array: O(n + m). *)

let distances t ~from =
  if from < 0 || from >= t.n then invalid_arg "Graph.distances: bad source";
  let o_off, o_adj = out_csr t in
  let dist = Array.make t.n (-1) in
  let queue = Array.make t.n 0 in
  dist.(from) <- 0;
  queue.(0) <- from;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let p = queue.(!head) in
    incr head;
    let d = dist.(p) + 1 in
    (* In-neighbours, then out-neighbours: one pass over each CSR. *)
    for i = t.off.(p) to t.off.(p + 1) - 1 do
      let q = t.adj.(i) in
      if dist.(q) < 0 then begin
        dist.(q) <- d;
        queue.(!tail) <- q;
        incr tail
      end
    done;
    for i = o_off.(p) to o_off.(p + 1) - 1 do
      let q = o_adj.(i) in
      if dist.(q) < 0 then begin
        dist.(q) <- d;
        queue.(!tail) <- q;
        incr tail
      end
    done
  done;
  dist

let distance t a b =
  let d = (distances t ~from:a).(b) in
  if d < 0 then None else Some d

let is_connected t =
  Array.for_all (fun d -> d >= 0) (distances t ~from:0)

let eccentricity t ~from =
  Array.fold_left
    (fun acc d -> if d < 0 then max_int else max acc d)
    0
    (distances t ~from)

(* Exact diameter is an all-pairs sweep - fine up to a few thousand nodes.
   Above [exact_cap] we fall back to a double BFS sweep (the eccentricity
   of a farthest node from node 0), a classic lower bound that is exact on
   trees and tight on the vertex-transitive families here. *)
let exact_cap = 2048

let diameter t =
  if not (is_connected t) then max_int
  else if t.n <= exact_cap then begin
    let d = ref 0 in
    for p = 0 to t.n - 1 do
      d := max !d (eccentricity t ~from:p)
    done;
    !d
  end
  else begin
    let d0 = distances t ~from:0 in
    let far = ref 0 in
    Array.iteri (fun p d -> if d > d0.(!far) then far := p) d0;
    eccentricity t ~from:!far
  end

(* Per-neighborhood Byzantine resilience: with full attendance a row holds
   in_degree + 1 estimates (the neighbors plus self), and the reduced
   midpoint survives g = (count - 1) / 3 = in_degree / 3 traitors in it -
   the Soa/Sweep degradation rule read off the topology.  The graph-wide
   figure is the weakest neighborhood's. *)
let tolerated_faults t =
  fold_degrees t (fun acc d -> min acc (d / 3)) max_int

let pp ppf t =
  Format.fprintf ppf
    "%s: n=%d edges=%d in-degree=[%d,%d] symmetric=%b connected=%b"
    (kind_name t.kind) t.n (edges t) (min_in_degree t) (max_in_degree t)
    (is_symmetric t) (is_connected t)
