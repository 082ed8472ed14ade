(* Sharded driver for the struct-of-arrays cluster model.

   A round at n = 10^5 is n(degree+1) events.  Because Soa's topology and
   delays are pure functions of (seed, src, dst, round), destination ranges
   are independent: each shard fills and sweeps its own slice of the
   round's estimate rows, and no cross-shard messaging exists to
   serialize.  Determinism then rests on two facts:

   - corrections are a positional stitch of per-destination values that do
     not depend on shard boundaries, so Pool's index-ordered results make
     the state trajectory byte-identical at any worker count;

   - the round checksum hashes each sorted row together with its
     destination id and combines rows by wrap-around addition, so it
     cannot depend on where the shard cuts fell or which worker finished
     first. *)

module Soa = Csync_process.Soa
module Sweep = Csync_core.Sweep
module Obs = Csync_obs.Registry

(* Same 62-bit mixer family as Soa's hash: allocation-free, deterministic
   across 64-bit platforms.  [@inline] keeps the chains of
   [rows_checksum], which hashes every estimate of a round, in
   registers, and [mix_float]'s argument unboxed. *)
let[@inline] mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1F123BB5159A55E5 in
  x lxor (x lsr 32)

let[@inline] mix_int h k = mix (h lxor k)

let[@inline] mix_float h x = mix_int h (Int64.to_int (Int64.bits_of_float x))

let shard_bounds ~n ~shards s = (s * n / shards, (s + 1) * n / shards)

let resolve_jobs jobs =
  match jobs with Some j when j > 0 -> j | _ -> Pool.default_jobs ()

(* Per-shard telemetry, recorded by the worker into its task's own
   registry (see {!Pool.init}), which the pool folds back in shard-index
   order.  Everything recorded is a pure observation of [t]; the run
   itself is untouched, so results stay byte-identical with telemetry on
   or off. *)
let observe_shard t obs (shard : Soa.shard) =
  if Obs.enabled obs then begin
    Obs.Counter.add (Obs.counter obs "scale.events") shard.Soa.count;
    (* Delays live in [delta - eps, delta + eps] (~1e-2 at the paper's
       params); local skews span many decades as they contract round
       over round — both are log-histogram shaped. *)
    let delays =
      Obs.hist_log obs ~lo:1e-3 ~hi:1e-1 ~per_decade:32 "scale.link_delay"
    in
    let skews =
      Obs.hist_log obs ~lo:1e-9 ~hi:1.0 ~per_decade:8 "scale.local_skew"
    in
    for dst = shard.Soa.lo to shard.Soa.hi - 1 do
      for j = 0 to Soa.in_degree t dst - 1 do
        let src = Soa.in_neighbor t ~dst j in
        if src <> dst then
          Obs.Hist.add delays (Soa.link_delay t ~src ~dst)
      done;
      Obs.Hist.add skews (Soa.local_skew_at t dst)
    done
  end

(* [Int64.bits_of_float slab.(k)] as an int, read straight from the flat
   float array.  [Int64.bits_of_float] is a C call, and on OCaml 5 every
   C call switches stacks: at one per estimate that cost hid all the gain
   of the interleaved chains below.  A [float array] stores its elements
   as raw IEEE doubles, so the bytes primitive, which compiles to one
   load, reads the same 64 bits.  Unchecked: [rows_checksum] bounds every
   row first, and checks that the slab really is flat (a compiler built
   with -no-flat-float-array boxes each element). *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] bits_at (slab : float array) k =
  Int64.to_int (get64u (Obj.magic slab : Bytes.t) (k * 8))

(* Row [r]'s count, checked so that its estimates lie inside the slab. *)
let[@inline] row_count counts ~width r =
  let c = counts.(r) in
  if c < 0 || c > width then invalid_arg "Scale: bad row count";
  c

(* Order-independent digest of a swept shard: each row hashes its
   destination id, count and sorted estimates, and rows combine by
   wrap-around addition, so a row contributes the same wherever the shard
   cuts fall.

   A row's hash is a serial chain - every [mix] waits on the previous
   one's two multiplies - so hashing one row at a time runs at multiply
   latency.  Four rows are hashed in lockstep instead: four independent
   chains over the shared prefix of their counts, then each row's own
   tail, then the last [(hi - lo) mod 4] rows one at a time.  Each row
   still folds exactly its own [mix_int row count] seed and estimates in
   order, so every row's hash is unchanged, and wrap-around addition is
   associative and commutative, so the sum is too. *)
let rows_checksum ~width (shard : Soa.shard) =
  let slab = shard.Soa.slab and counts = shard.Soa.counts in
  let hi = shard.Soa.hi in
  if Obj.tag (Obj.repr slab) <> Obj.double_array_tag then
    invalid_arg "Scale: estimate slab is not a flat float array";
  if Array.length slab < hi * width then invalid_arg "Scale: short slab";
  let sum = ref 0 and row = ref shard.Soa.lo in
  while !row + 4 <= hi do
    let r = !row in
    let c0 = row_count counts ~width r in
    let c1 = row_count counts ~width (r + 1) in
    let c2 = row_count counts ~width (r + 2) in
    let c3 = row_count counts ~width (r + 3) in
    let b0 = r * width in
    let b1 = b0 + width in
    let b2 = b1 + width in
    let b3 = b2 + width in
    let h0 = ref (mix_int r c0) and h1 = ref (mix_int (r + 1) c1) in
    let h2 = ref (mix_int (r + 2) c2) and h3 = ref (mix_int (r + 3) c3) in
    let common = Int.min (Int.min c0 c1) (Int.min c2 c3) in
    for k = 0 to common - 1 do
      h0 := mix_int !h0 (bits_at slab (b0 + k));
      h1 := mix_int !h1 (bits_at slab (b1 + k));
      h2 := mix_int !h2 (bits_at slab (b2 + k));
      h3 := mix_int !h3 (bits_at slab (b3 + k))
    done;
    for k = common to c0 - 1 do h0 := mix_int !h0 (bits_at slab (b0 + k)) done;
    for k = common to c1 - 1 do h1 := mix_int !h1 (bits_at slab (b1 + k)) done;
    for k = common to c2 - 1 do h2 := mix_int !h2 (bits_at slab (b2 + k)) done;
    for k = common to c3 - 1 do h3 := mix_int !h3 (bits_at slab (b3 + k)) done;
    sum := !sum + !h0 + !h1 + !h2 + !h3;
    row := r + 4
  done;
  for r = !row to hi - 1 do
    let c = row_count counts ~width r in
    let h = ref (mix_int r c) in
    for k = r * width to (r * width) + c - 1 do
      h := mix_int !h (bits_at slab k)
    done;
    sum := !sum + !h
  done;
  !sum

let round ?jobs t =
  let n = Soa.n t in
  let jobs = resolve_jobs jobs in
  let shards = max 1 (min jobs n) in
  let width = Soa.width t in
  let obs = Obs.installed () in
  (* The shards only read the report-time table: fill it here, once,
     before they fan out. *)
  Soa.prepare t;
  let results =
    Pool.init ~jobs shards (fun s ->
        let lo, hi = shard_bounds ~n ~shards s in
        (* This task's own registry when tracing (see {!Pool.init}). *)
        let obs = Obs.installed () in
        let shard =
          Obs.Span.time (Obs.span obs "profile.fill") (fun () ->
              Soa.run_shard t ~lo ~hi)
        in
        (* Each shard sweeps its rows into its own cells of the model's
           midpoint store. *)
        Obs.Span.time (Obs.span obs "profile.sweep") (fun () ->
            Sweep.sweep_rows ~slab:shard.Soa.slab ~width
              ~counts:shard.Soa.counts ~f:(Soa.f t) ~lo ~hi
              ~out:shard.Soa.mids);
        observe_shard t obs shard;
        (shard, rows_checksum ~width shard))
  in
  let events = ref 0 and checksum = ref 0 in
  Array.iter
    (fun (shard, sum) ->
      events := !events + shard.Soa.count;
      checksum := !checksum + sum)
    results;
  (* The shards cover every destination, so the store holds this round's
     midpoint for each of them: one [apply] over all of it. *)
  let mids = (fst results.(0)).Soa.mids in
  Obs.Span.time (Obs.span obs "profile.apply") (fun () ->
      Soa.apply t ~lo:0 mids);
  Obs.Span.time (Obs.span obs "profile.advance") (fun () -> Soa.advance t);
  (* Per-round convergence series (an O(n)/O(edges) observation pass,
     only when telemetry is on).  Pushed here rather than in [run] so
     every round-driving caller — the experiments loop rounds themselves
     — feeds the same series; x is the round counter [advance] just
     incremented past. *)
  let sp_s = Obs.series obs "scale.spread" in
  if Obs.Series.active sp_s then begin
    let r = float_of_int (Soa.round t - 1) in
    Obs.Series.push (Obs.series obs "scale.events_per_round") r
      (float_of_int !events);
    Obs.Series.push sp_s r (Soa.spread t);
    Obs.Series.push (Obs.series obs "scale.local_skew_max") r (Soa.local_skew t)
  end;
  (!events, !checksum)

type stats = {
  n : int;
  jobs : int;
  shards : int;
  rounds : int;
  events : int;
  checksum : int;
  state : int;
  spread0 : float;
  spread1 : float;
  local0 : float;
  local1 : float;
}

let state_checksum t =
  let h = ref (mix_int (Soa.round t) (Soa.n t)) in
  for p = 0 to Soa.n t - 1 do
    h := mix_float !h (Soa.corr t p)
  done;
  !h

let run ?jobs ?(rounds = 1) t =
  if rounds < 0 then invalid_arg "Scale.run: negative rounds";
  let jobs = resolve_jobs jobs in
  let shards = max 1 (min jobs (Soa.n t)) in
  let spread0 = Soa.spread t in
  let local0 = Soa.local_skew t in
  let events = ref 0 in
  let checksum = ref 0 in
  for _ = 1 to rounds do
    let ev, ck = round ~jobs t in
    events := !events + ev;
    checksum := mix_int !checksum ck
  done;
  let state =
    Obs.Span.time
      (Obs.span (Obs.installed ()) "profile.checksum")
      (fun () -> state_checksum t)
  in
  {
    n = Soa.n t;
    jobs;
    shards;
    rounds;
    events = !events;
    checksum = !checksum;
    state;
    spread0;
    spread1 = Soa.spread t;
    local0;
    local1 = Soa.local_skew t;
  }
