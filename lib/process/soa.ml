(* Struct-of-arrays cluster model for n in the 10^5 range.

   Process.Cluster carries each process as an automaton closure behind a
   heap-allocated state cell - ideal for the paper-faithful experiments at
   n <= a few hundred, hopeless at n = 10^5.  This module keeps the whole
   system as parallel flat arrays (rate, offset, corr, status) and replays
   one synchronization round as a pure function of that state: broadcast
   times, hashed per-link delays and arrival estimates are all recomputed
   from (seed, src, dst, round) rather than stored, so a shard of the
   process space can be simulated with nothing but its own estimate rows.
   The one cache is [prepare]'s per-round table of report times - one
   division per process instead of one per edge - refilled whenever a
   mutator has touched the state it is computed from.

   Who hears whom is a Topo.Graph - the default is the same directed
   predecessor ring the model hardcoded before topologies existed (and
   [Graph.ring] reproduces its neighbor order exactly, so default-model
   checksums are byte-identical to the hardcoded era), but any sparse
   graph works: grids, tori, seeded circulant expanders, hierarchical
   synchronization cliques.  The correction [mode] chooses between the
   full reduced-midpoint jump (Welch-Lynch) and the gradient rule
   (Topo.Gradient: move [gain] of the way toward the neighborhood
   midpoint), whose per-hop skew guarantee is what sparse topologies are
   for.

   A round fills each destination's estimate row directly: the averaging
   function reads only the multiset of ARR - delta estimates (mid o reduce
   sorts them itself), so no event order is needed to build it.  A
   shard's event count is one per arrival plus one round close per live
   row. *)

module Graph = Csync_topo.Graph
module Gradient = Csync_topo.Gradient

type mode = Midpoint | Gradient_avg of float

type t = {
  n : int;
  graph : Graph.t;
  width : int;  (* max in-degree + 1: slab row width *)
  f : int;
  seed : int;
  hseed : int;  (* mix seed, hoisted out of every per-link hash *)
  rho : float;
  delta : float;
  eps : float;
  period : float;
  mode : mode;
  rate : float array;  (* drift in [-rho, rho] *)
  offset : float array;  (* hardware-clock offset at real time 0 *)
  corr : float array;
  status : int array;  (* 0 ok, 1 crashed, 2 pull-faulty *)
  pull : float array;  (* broadcast-time skew of pull-faulty processes *)
  mutable round : int;
  (* Round scratch, allocated by the first [prepare]: [create] stays as
     cheap as the four arrays above. *)
  mutable rows : float array;  (* n * width estimates, row dst at dst * width *)
  mutable row_counts : int array;  (* estimates in each row *)
  mutable mids : float array;  (* n midpoints, the round driver's sweep output *)
  mutable rt : float array;  (* [report_time] of every process *)
  mutable stale : bool;  (* a mutator ran since [rt] was filled *)
}

let st_ok = 0
let st_crashed = 1
let st_pull = 2

(* 62-bit mixer (splitmix-style, constants chosen to fit OCaml's native
   int): deterministic across 64-bit platforms and allocation-free, unlike
   the boxed Int64 route.

   This and the per-link helpers below are [@inline] so that [run_shard]
   and [apply] keep their floats unboxed: an out-of-line call boxes its
   float result, on every edge of every round. *)
let[@inline] mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1F123BB5159A55E5 in
  x lxor (x lsr 32)

let u01_scale = 1. /. 1099511627776.  (* 2^-40 *)

let[@inline] u01 h =
  float_of_int ((h land max_int) land ((1 lsl 40) - 1)) *. u01_scale

let create ?graph ?(degree = 8) ?(f = 2) ?(seed = 1) ?(rho = 1e-5)
    ?(delta = 0.01) ?(eps = 0.001) ?(period = 10.) ?(dispersion = 1.)
    ?(mode = Midpoint) ~n () =
  if n <= 1 then invalid_arg "Soa.create: need n > 1";
  if degree <= 0 then invalid_arg "Soa.create: nonpositive degree";
  if f < 0 then invalid_arg "Soa.create: negative f";
  if not (delta > 0. && eps >= 0. && eps < delta) then
    invalid_arg "Soa.create: need 0 <= eps < delta";
  (match mode with
  | Midpoint -> ()
  | Gradient_avg gain ->
    if not (gain > 0. && gain <= 1.) then
      invalid_arg "Soa.create: need 0 < gain <= 1");
  let graph =
    match graph with
    | Some g ->
      if Graph.n g <> n then invalid_arg "Soa.create: graph size mismatch";
      g
    | None ->
      (* The historical default: the directed predecessor ring. *)
      let degree = max 1 (min degree (n - 1)) in
      Graph.ring ~n ~degree
  in
  let hseed = mix seed in
  (* Filled by loops into flat float arrays: [Array.init]'s closure would
     box every float it returns. *)
  let hrate = mix (1 + hseed) and hoffset = mix (2 + hseed) in
  let rate = Array.make n 0. and offset = Array.make n 0. in
  for p = 0 to n - 1 do
    rate.(p) <- rho *. ((2. *. u01 (mix (p + hrate))) -. 1.);
    offset.(p) <- dispersion *. u01 (mix (p + hoffset))
  done;
  {
    n;
    graph;
    width = Graph.max_in_degree graph + 1;
    f;
    seed;
    hseed;
    rho;
    delta;
    eps;
    period;
    mode;
    rate;
    offset;
    corr = Array.make n 0.;
    status = Array.make n st_ok;
    pull = Array.make n 0.;
    round = 0;
    rows = [||];
    row_counts = [||];
    mids = [||];
    rt = [||];
    stale = true;
  }

let n t = t.n
let graph t = t.graph
let mode t = t.mode
let degree t = t.width - 1
let f t = t.f
let round t = t.round
let width t = t.width

let check_pid t pid name =
  if pid < 0 || pid >= t.n then invalid_arg ("Soa." ^ name ^ ": pid out of range")

let crash t pid =
  check_pid t pid "crash";
  t.status.(pid) <- st_crashed;
  t.stale <- true

let set_pull t pid skew =
  check_pid t pid "set_pull";
  t.status.(pid) <- st_pull;
  t.pull.(pid) <- skew;
  t.stale <- true

let is_ok t pid = t.status.(pid) = st_ok

let in_degree t dst = Graph.in_degree t.graph dst

let in_neighbor t ~dst j = Graph.in_neighbor t.graph ~dst j

(* Real time at which p's logical clock reads the current round's target
   T_r = period * (round + 1): L_p(b) = (1 + rate) b + offset + corr = T_r. *)
let[@inline] broadcast_time t p =
  let target = t.period *. float_of_int (t.round + 1) in
  (target -. t.offset.(p) -. t.corr.(p)) /. (1. +. t.rate.(p))

let[@inline] report_time t p =
  let b = broadcast_time t p in
  if t.status.(p) = st_pull then b +. t.pull.(p) else b

(* Per-round hash seed of the link delays. *)
let hround t = mix (t.round + mix (3 + t.hseed))

(* The delay on link src -> dst, given the destination's hash
   [hdst = mix (dst + hround t)] and the window's floor [dlo = delta - eps]
   and [span = 2 eps]: [run_shard] computes [hdst] once per row and the
   window once per shard, not once per sender.  The float operations stay
   in the order (delta - eps) + (2 eps) u: re-associating changes bits. *)
let[@inline] delay_in ~dlo ~span ~hdst ~src =
  dlo +. (span *. u01 (mix (src + hdst)))

let spread t =
  let lo = ref infinity and hi = ref neg_infinity in
  for p = 0 to t.n - 1 do
    if t.status.(p) = st_ok then begin
      let b = broadcast_time t p in
      if b < !lo then lo := b;
      if b > !hi then hi := b
    end
  done;
  if !hi < !lo then 0. else !hi -. !lo

let local_skew t =
  Gradient.local_skew ~graph:t.graph
    ~ok:(fun p -> t.status.(p) = st_ok)
    ~value:(broadcast_time t)

let local_skew_at t p =
  if p < 0 || p >= t.n then invalid_arg "Soa.local_skew_at";
  if t.status.(p) <> st_ok then 0.
  else begin
    let bp = broadcast_time t p in
    let worst = ref 0. in
    let d = Graph.in_degree t.graph p in
    for j = 0 to d - 1 do
      let q = Graph.in_neighbor t.graph ~dst:p j in
      if q <> p && t.status.(q) = st_ok then begin
        let dv = Float.abs (bp -. broadcast_time t q) in
        if dv > !worst then worst := dv
      end
    done;
    !worst
  end

let link_delay t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Soa.link_delay";
  delay_in ~dlo:(t.delta -. t.eps) ~span:(2. *. t.eps)
    ~hdst:(mix (dst + hround t)) ~src

(* Every edge of a round reads its sender's report time, so the table
   turns ~width divisions per process into one.  The stale flag is set by
   every mutator of the state [report_time] reads (status, pull, corr,
   round); the storage is allocated on first use and kept for the
   model's lifetime, so a warm round allocates no rows or midpoints. *)
let prepare t =
  if t.stale then begin
    if Array.length t.rt = 0 then begin
      t.rows <- Array.make (t.n * t.width) 0.;
      t.row_counts <- Array.make t.n 0;
      t.mids <- Array.make t.n Float.nan;
      t.rt <- Array.make t.n 0.
    end;
    let rt = t.rt in
    for p = 0 to t.n - 1 do
      rt.(p) <- report_time t p
    done;
    t.stale <- false
  end

type shard = {
  lo : int;
  hi : int;
  count : int;
  slab : float array;
  counts : int array;
  mids : float array;
}

(* Adjacency is read straight from the graph's CSR arrays: a call per
   edge into [Graph] (out of line wherever the build passes [-opaque],
   as dune's dev profile does) costs over a third of the fill. *)
let run_shard t ~lo ~hi =
  if lo < 0 || hi > t.n || lo >= hi then invalid_arg "Soa.run_shard: bad range";
  prepare t;
  let width = t.width in
  let hround = hround t in
  let delta = t.delta in
  let dlo = delta -. t.eps and span = 2. *. t.eps in
  let off, adj = Graph.in_csr t.graph in
  let status = t.status and rt = t.rt in
  let rows = t.rows and counts = t.row_counts in
  let count = ref 0 in
  for dst = lo to hi - 1 do
    if status.(dst) = st_ok then begin
      let base = dst * width in
      (* A process hears its own broadcast exactly (a nonfaulty
         process's report time is its broadcast time). *)
      rows.(base) <- rt.(dst);
      let hdst = mix (dst + hround) in
      let c = ref 1 in
      for k = off.(dst) to off.(dst + 1) - 1 do
        let src = adj.(k) in
        if status.(src) <> st_crashed then begin
          (* The estimate of the sender's round start is the arrival time
             minus the nominal delay (Section 4's ARR - delta), off by at
             most eps. *)
          let a = rt.(src) +. delay_in ~dlo ~span ~hdst ~src in
          rows.(base + !c) <- a -. delta;
          incr c
        end
      done;
      counts.(dst) <- !c;
      (* The row's arrivals plus its round close: [c] again. *)
      count := !count + !c
    end
    else counts.(dst) <- 0
  done;
  { lo; hi; count = !count; slab = rows; counts; mids = t.mids }

(* Retarget each surviving row's broadcast toward its correction target:
   the row's reduced midpoint under [Midpoint] (the Welch-Lynch jump), or
   [gain] of the way there under [Gradient_avg] (the neighbor-averaging
   rule whose fixed point bounds neighbor skew).  b' = m requires
   corr' = corr - (m - b)(1 + rate), since db/dcorr = -1/(1 + rate).
   Faulty processes never adjust.  [b] is computed here rather than read
   from [prepare]'s table: apply needs no prepared model.  The gradient
   step is [Gradient.target] written out: a call into another library
   would box its float arguments and result once per process. *)
let apply t ~lo mids =
  for i = 0 to Array.length mids - 1 do
    let p = lo + i in
    let m = mids.(i) in
    if t.status.(p) = st_ok && Float.is_finite m then begin
      let b = broadcast_time t p in
      let m =
        match t.mode with
        | Midpoint -> m
        | Gradient_avg gain -> b +. (gain *. (m -. b))
      in
      t.corr.(p) <- t.corr.(p) -. ((m -. b) *. (1. +. t.rate.(p)))
    end
  done;
  t.stale <- true

let advance t =
  t.round <- t.round + 1;
  t.stale <- true

let corr t p =
  check_pid t p "corr";
  t.corr.(p)
