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
    acc := g !acc (in_degree t p)
  done;
  !acc

let max_in_degree t = fold_degrees t max 0
let min_in_degree t = fold_degrees t min max_int

(* ---------- construction ---------- *)

let of_in_lists ~kind ~seed lists =
  let n = Array.length lists in
  if n <= 0 then invalid_arg "Graph: empty node set";
  let off = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    off.(p + 1) <- off.(p) + List.length lists.(p)
  done;
  let adj = Array.make off.(n) 0 in
  Array.iteri
    (fun p l -> List.iteri (fun j q -> adj.(off.(p) + j) <- q) l)
    lists;
  Array.iter
    (fun q -> if q < 0 || q >= n then invalid_arg "Graph: neighbor out of range")
    adj;
  { kind; n; seed; off; adj; out_csr = None; bcast_csr = None }

let ring ~n ~degree =
  if n <= 1 then invalid_arg "Graph.ring: need n > 1";
  if degree < 1 || degree > n - 1 then
    invalid_arg "Graph.ring: need 1 <= degree <= n - 1";
  (* PR 7's orientation and order: dst hears its [degree] predecessors
     dst - 1, dst - 2, ..., dst - degree (mod n).  The scale stack's slot
     layout and per-link delay hashes key off this exact sequence. *)
  of_in_lists ~kind:Ring ~seed:0
    (Array.init n (fun dst ->
         List.init degree (fun j -> (dst - 1 - j + n) mod n)))

let complete ~n =
  if n <= 1 then invalid_arg "Graph.complete: need n > 1";
  of_in_lists ~kind:Complete ~seed:0
    (Array.init n (fun p ->
         List.filter (fun q -> q <> p) (List.init n Fun.id)))

let sorted_dedup l =
  List.sort_uniq Int.compare l

let grid_like ~kind ~rows ~cols ~wrap =
  if rows <= 0 || cols <= 0 || rows * cols <= 1 then
    invalid_arg "Graph.grid: need rows * cols > 1";
  let n = rows * cols in
  let id r c = (r * cols) + c in
  of_in_lists ~kind ~seed:0
    (Array.init n (fun p ->
         let r = p / cols and c = p mod cols in
         let near dr dc =
           if wrap then Some (id ((r + dr + rows) mod rows) ((c + dc + cols) mod cols))
           else
             let r' = r + dr and c' = c + dc in
             if r' < 0 || r' >= rows || c' < 0 || c' >= cols then None
             else Some (id r' c')
         in
         List.filter_map Fun.id [ near (-1) 0; near 1 0; near 0 (-1); near 0 1 ]
         |> List.filter (fun q -> q <> p)
         |> sorted_dedup))

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
  let used = Hashtbl.create 16 in
  Hashtbl.add used 1 ();
  let hseed = mix (seed + (mix n) + 0x706f) in
  let cursor = ref 0 in
  let lo = 2 and hi = (n - 1) / 2 in
  for k = 1 to half - 1 do
    let rec draw () =
      let h = mix (!cursor + hseed) in
      incr cursor;
      let g = lo + ((h land max_int) mod (hi - lo + 1)) in
      if Hashtbl.mem used g then draw () else g
    in
    let g = if hi < lo then 1 else draw () in
    if g <> 1 then Hashtbl.add used g ();
    gens.(k) <- g
  done;
  of_in_lists ~kind:Expander ~seed
    (Array.init n (fun p ->
         Array.to_list gens
         |> List.concat_map (fun g -> [ (p + g) mod n; (p - g + n) mod n ])
         |> List.filter (fun q -> q <> p)
         |> sorted_dedup))

(* Hierarchical synchronization clusters: consecutive blocks of [cluster]
   nodes form cliques (the per-cluster full mesh a Welch-Lynch instance
   needs), and the first node of each cluster - its leader - joins a
   [branching]-ary tree of leaders that stitches the clusters together. *)
let hier_tree ~n ~cluster ~branching =
  if n <= 1 then invalid_arg "Graph.hier_tree: need n > 1";
  if cluster < 2 then invalid_arg "Graph.hier_tree: need cluster >= 2";
  if branching < 1 then invalid_arg "Graph.hier_tree: need branching >= 1";
  let clusters = (n + cluster - 1) / cluster in
  let leader c = c * cluster in
  let lists = Array.make n [] in
  for p = 0 to n - 1 do
    let c = p / cluster in
    let lo = c * cluster and hi = min n ((c + 1) * cluster) in
    lists.(p) <-
      List.filter (fun q -> q <> p) (List.init (hi - lo) (fun i -> lo + i))
  done;
  for c = 1 to clusters - 1 do
    let parent = leader ((c - 1) / branching) and child = leader c in
    lists.(child) <- parent :: lists.(child);
    lists.(parent) <- child :: lists.(parent)
  done;
  Array.iteri (fun p l -> lists.(p) <- sorted_dedup l) lists;
  of_in_lists ~kind:Hier_tree ~seed:0 lists

(* ---------- derived views ---------- *)

(* Transpose of the in-CSR: out-neighbors (who hears p), ascending - a
   counting sort over the in-edges, O(n + m). *)
let out_csr t =
  match t.out_csr with
  | Some csr -> csr
  | None ->
    let off = Array.make (t.n + 1) 0 in
    Array.iter (fun src -> off.(src + 1) <- off.(src + 1) + 1) t.adj;
    for p = 0 to t.n - 1 do
      off.(p + 1) <- off.(p + 1) + off.(p)
    done;
    let adj = Array.make (Array.length t.adj) 0 in
    let next = Array.copy off in
    (* Walk destinations in ascending order so each source's slice fills
       in ascending destination order. *)
    for dst = 0 to t.n - 1 do
      iter_in t ~dst (fun src ->
          adj.(next.(src)) <- dst;
          next.(src) <- next.(src) + 1)
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
  let ok = ref true in
  for dst = 0 to t.n - 1 do
    iter_in t ~dst (fun src ->
        let back = ref false in
        iter_in t ~dst:src (fun q -> if q = dst then back := true);
        if not !back then ok := false)
  done;
  !ok

(* ---------- distance queries ----------

   BFS over the undirected skeleton (an edge conducts information in at
   least one direction per round, and every family except the ring is
   symmetric anyway).  One flat queue, one visit array: O(n + m). *)

let distances t ~from =
  if from < 0 || from >= t.n then invalid_arg "Graph.distances: bad source";
  let dist = Array.make t.n (-1) in
  let queue = Array.make t.n 0 in
  dist.(from) <- 0;
  queue.(0) <- from;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let p = queue.(!head) in
    incr head;
    let visit q =
      if dist.(q) < 0 then begin
        dist.(q) <- dist.(p) + 1;
        queue.(!tail) <- q;
        incr tail
      end
    in
    iter_in t ~dst:p visit;
    iter_out t ~src:p visit
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
