module Cluster = Csync_process.Cluster
module Fault = Csync_process.Fault
module Hardware_clock = Csync_clock.Hardware_clock
module Multiset = Csync_multiset
module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Reintegration = Csync_core.Reintegration
module Adversary = Csync_core.Adversary

type t = {
  params : Params.t;
  seed : int;
  victim : int;
  crash_round : int;
  wake_round : float;
  wake_corr : float;
  rounds : int;
  silent_faulty : int option;
}

let default ?(seed = 42) (params : Params.t) =
  let n = params.Params.n in
  {
    params;
    seed;
    victim = n - 2;
    crash_round = 3;
    wake_round = 8.4;
    wake_corr = 0.371;
    rounds = 25;
    silent_faulty = Some (n - 1);
  }

type result = {
  join_round : int option;
  victim_offset : (float * float) array;
  pre_crash_skew : float;
  wake_offset : float;
  post_join_skew : float;
  others_skew_throughout : float;
}

let run t =
  let { Params.n; big_p; t0; beta; _ } = t.params in
  if t.wake_round <= float_of_int t.crash_round then
    invalid_arg "Runner_reintegration.run: wake before crash";
  let is_faulty pid = Some pid = t.silent_faulty in
  let env =
    Env.make ~params:t.params ~seed:t.seed ~clock_kind:Env.Drifting
      ~delay_kind:Env.Uniform_delay
      ~is_faulty:(fun pid -> is_faulty pid || pid = t.victim)
      ~offset_spread:(beta *. 0.9) ~rounds:t.rounds
  in
  let round_real i = Env.tmax0 env +. (i *. big_p) in
  let crash_time = round_real (float_of_int t.crash_round) in
  let wake_time = round_real t.wake_round in
  let t_end = round_real (float_of_int t.rounds) in
  (* The victim is honest at first (a wake-up inside the pack), silent from
     [crash_time], and a Section 9.1 reintegration automaton from
     [wake_time], its wake-up correction [wake_corr]. *)
  let cfg = Maintenance.config t.params in
  let rcfg = Reintegration.config ~initial_corr:t.wake_corr cfg in
  let victim_clock = env.Env.clocks.(t.victim) in
  let victim_auto =
    Fault.crash_recover
      ~crash_phys:(Hardware_clock.time victim_clock crash_time)
      ~recover_phys:(Hardware_clock.time victim_clock wake_time)
      ~recovery:(Reintegration.automaton ~self_hint:t.victim rcfg)
      (Maintenance.automaton ~self_hint:t.victim cfg)
  in
  let victim_proc, victim_reader = Cluster.make_proc victim_auto in
  let procs =
    Array.init n (fun pid ->
        if is_faulty pid then Adversary.silent ()
        else if pid = t.victim then victim_proc
        else fst (Maintenance.create ~self:pid cfg))
  in
  let cluster =
    Cluster.create ~clocks:env.Env.clocks ~delay:env.Env.delay ~procs ()
  in
  Cluster.schedule_starts_at_logical cluster ~t0 ~corrs:(Array.make n 0.);
  (* A START at the wake instant boots the recovery automaton there. *)
  Cluster.schedule_start cluster ~pid:t.victim ~time:wake_time;
  let join_state () = Fault.recovered_state (victim_reader ()) in
  let survivors =
    List.filter (fun p -> p <> t.victim) env.Env.nonfaulty
  in
  (* Samples: a fixed grid over the whole run; victim offset is measured
     against the median of the surviving local times. *)
  let sample_count = t.rounds * 8 in
  let times = Sampling.grid ~from_time:(Env.tmax0 env) ~to_time:t_end ~count:sample_count in
  let victim_offsets = ref [] in
  let others_skew = ref 0. in
  let skew_incl_victim_after = ref 0. in
  let pre_crash_skew = ref 0. in
  Array.iter
    (fun time ->
      Cluster.run_until cluster time;
      let locals = List.map (Cluster.local_time cluster) survivors in
      let lo = List.fold_left Float.min (List.hd locals) locals in
      let hi = List.fold_left Float.max (List.hd locals) locals in
      others_skew := Float.max !others_skew (hi -. lo);
      if time < crash_time || time >= wake_time then begin
        let v = Cluster.local_time cluster t.victim in
        let offset =
          Float.abs (v -. Multiset.median (Multiset.of_list locals))
        in
        victim_offsets := (time, offset) :: !victim_offsets;
        if time < crash_time then
          pre_crash_skew :=
            Float.max !pre_crash_skew (Float.max (hi -. lo) offset);
        (* After the rejoin has had a full round to settle, the victim is
           nonfaulty again and must satisfy agreement. *)
        match join_state () with
        | Some s when Reintegration.mode s = Reintegration.Joined ->
          let joined_at =
            match Reintegration.join_round s with
            | Some r -> round_real (float_of_int (r + 1))
            | None -> infinity
          in
          if time >= joined_at then
            skew_incl_victim_after :=
              Float.max !skew_incl_victim_after
                (Float.max (hi -. lo) (Float.max (v -. lo) (hi -. v)))
        | _ -> ()
      end)
    times;
  let wake_offset =
    (* First recorded offset after the wake time. *)
    List.fold_left
      (fun acc (time, off) ->
        if time >= wake_time && time < wake_time +. big_p then Float.max acc off
        else acc)
      0. !victim_offsets
  in
  {
    join_round = Option.bind (join_state ()) Reintegration.join_round;
    victim_offset = Array.of_list (List.rev !victim_offsets);
    pre_crash_skew = !pre_crash_skew;
    wake_offset;
    post_join_skew = !skew_incl_victim_after;
    others_skew_throughout = !others_skew;
  }
