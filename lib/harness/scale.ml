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
module Profile = Csync_obs.Profile

(* Same 62-bit mixer family as Soa's hash: allocation-free, deterministic
   across 64-bit platforms.  [@inline] keeps [mix_float]'s argument
   unboxed in [rows_checksum], which hashes every estimate of a round. *)
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

(* Order-independent digest of a swept shard: each row hashes its
   destination id, count and sorted estimates, and rows combine by
   wrap-around addition, so a row contributes the same wherever the shard
   cuts fall. *)
let rows_checksum ~width (shard : Soa.shard) =
  let sum = ref 0 in
  Array.iteri
    (fun row c ->
      let h = ref (mix_int (shard.Soa.lo + row) c) in
      for k = row * width to (row * width) + c - 1 do
        h := mix_float !h shard.Soa.slab.(k)
      done;
      sum := !sum + !h)
    shard.Soa.counts;
  !sum

let round ?jobs t =
  let n = Soa.n t in
  let jobs = resolve_jobs jobs in
  let shards = max 1 (min jobs n) in
  let width = Soa.width t in
  let obs = Obs.installed () in
  let prof = Profile.create obs in
  let results =
    Pool.init ~jobs shards (fun s ->
        let lo, hi = shard_bounds ~n ~shards s in
        (* This task's own registry when tracing (see {!Pool.init}). *)
        let obs = Obs.installed () in
        let shard =
          Obs.Span.time (Obs.span obs "profile.fill") (fun () ->
              Soa.run_shard t ~lo ~hi)
        in
        let mids = Array.make (hi - lo) Float.nan in
        Obs.Span.time (Obs.span obs "profile.sweep") (fun () ->
            Sweep.sweep ~slab:shard.Soa.slab ~width ~counts:shard.Soa.counts
              ~f:(Soa.f t) ~out:mids);
        observe_shard t obs shard;
        (shard, mids, rows_checksum ~width shard))
  in
  let events = ref 0 and checksum = ref 0 in
  Array.iter
    (fun (shard, _, sum) ->
      events := !events + shard.Soa.count;
      checksum := !checksum + sum)
    results;
  Profile.time prof Profile.Apply (fun () ->
      Array.iter
        (fun (shard, mids, _) -> Soa.apply t ~lo:shard.Soa.lo mids)
        results);
  Profile.time prof Profile.Advance (fun () -> Soa.advance t);
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
  let obs = Obs.installed () in
  let prof = Profile.create obs in
  let spread0 = Soa.spread t in
  let local0 = Soa.local_skew t in
  let events = ref 0 in
  let checksum = ref 0 in
  for _ = 1 to rounds do
    let ev, ck = round ~jobs t in
    events := !events + ev;
    checksum := mix_int !checksum ck
  done;
  let state = Profile.time prof Profile.Checksum (fun () -> state_checksum t) in
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
