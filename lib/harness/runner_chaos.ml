module Rng = Csync_sim.Rng
module Drift = Csync_clock.Drift
module Hardware_clock = Csync_clock.Hardware_clock
module Delay = Csync_net.Delay
module Cluster = Csync_process.Cluster
module Fault = Csync_process.Fault
module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Reintegration = Csync_core.Reintegration
module Stabilize = Csync_core.Stabilize
module Plan = Csync_chaos.Plan
module Gen = Csync_chaos.Gen
module Injector = Csync_chaos.Injector

type t = {
  params : Params.t;
  seed : int;
  plan : Plan.t;
  rounds : int;
}

let make ?(seed = 42) ?(rounds = 24) ~params plan = { params; seed; plan; rounds }

type recovery = {
  pid : int;
  recover_time : float;
  join_round : int option;
  post_join_skew : float;
}

type stabilization = {
  corrupted_pid : int;
  corrupted_at : float; (* real time of the pid's last corruption *)
  severity : float; (* largest severity thrown at the pid *)
  wrapper_breaches : int; (* detector firings (reintegrations started) *)
  applied : int; (* scheduled corruptions actually applied *)
  readmitted_at : float option; (* real time the wrapper re-admitted it *)
  healthy_at_end : bool;
  stabilized_in : float;
      (* seconds from the last corruption to the last sample where the pid
         sat outside gamma against the clean set; 0. if it never left *)
}

type result = {
  gamma : float;
  max_clean_skew : float;
  checked_samples : int;
  skipped_samples : int;
  max_suspects : int;
  recoveries : recovery list;
  stabilizations : stabilization list;
  stats : Injector.stats;
}

let settle_time (params : Params.t) = 5. *. params.Params.big_p

(* How long after an absorbed (breach-free) corruption the wrapper is
   considered to have re-admitted the process: three rounds cover both
   healing by averaging (one or two updates) and the detectors' decision
   window - any breach fires within three rounds of traffic, so a pid
   still breach-free after this is genuinely healed. *)
let absorb_readmit_rounds = 3.

let run t =
  let { Params.n; f; rho; delta; eps; big_p; t0; beta; _ } = t.params in
  Plan.validate ~n t.plan;
  let rng = Rng.create t.seed in
  let clock_rng = Rng.split rng in
  let delay_rng = Rng.split rng in
  let offset_rng = Rng.split rng in
  let chaos_rng = Rng.split rng in
  let corr_rng = Rng.split rng in
  (* Mirror Env.make's construction (an even spread with jitter), but build
     the clocks by hand: plan disturbances must be compiled into each
     victim's drift profile before the clock is frozen. *)
  let offset_spread = beta *. 0.9 in
  let count = max 1 (n - 1) in
  let offsets =
    Array.init n (fun i ->
        let cell = offset_spread /. float_of_int count in
        let base = float_of_int i *. cell in
        if i = 0 || i = count then base
        else base +. (Rng.uniform offset_rng ~lo:(-0.25) ~hi:0.25 *. cell))
  in
  let horizon =
    (float_of_int (t.rounds + 2) *. big_p *. (1. +. (2. *. rho))) +. 1.
  in
  (* Plan times are real; a clock's profile runs on time elapsed since its
     creation instant offsets.(pid). *)
  let disturbances pid =
    List.filter_map
      (function
        | Plan.Clock_step { pid = p; at; amount } when p = pid ->
          Some (Drift.Step { at = at -. offsets.(pid); amount })
        | Plan.Rate_change { pid = p; factor; over } when p = pid ->
          Some
            (Drift.Rate_scale
               {
                 from_time = over.Plan.from_time -. offsets.(pid);
                 until_time = over.Plan.until_time -. offsets.(pid);
                 factor;
               })
        | _ -> None)
      t.plan
  in
  let clocks =
    Array.init n (fun pid ->
        let base =
          Drift.random ~rng:clock_rng ~rho ~segment_duration:(big_p /. 3.)
            ~horizon
        in
        let profile = Drift.disturb base ~horizon (disturbances pid) in
        Hardware_clock.create ~t0:offsets.(pid) ~offset:(t0 -. offsets.(pid))
          profile)
  in
  let delay = Delay.uniform ~delta ~eps ~rng:delay_rng in
  let cfg = Maintenance.config t.params in
  let crashes = Plan.crash_schedule t.plan in
  let corruptions = Plan.corruption_schedule t.plan in
  let life_readers = Hashtbl.create 4 in
  let stab_readers = Hashtbl.create 4 in
  let corr_readers = Array.make n (fun () -> 0.) in
  let procs =
    Array.init n (fun pid ->
        match List.find_opt (fun (p, _, _) -> p = pid) crashes with
        | Some (_, crash_at, recover_at) ->
          let crash_phys = Hardware_clock.time clocks.(pid) crash_at in
          let recover_phys =
            match recover_at with
            | None -> infinity
            | Some at -> Hardware_clock.time clocks.(pid) at
          in
          (* The repaired process wakes with a garbage correction; the
             reintegration automaton must absorb it (Section 9.1). *)
          let initial_corr = Rng.uniform corr_rng ~lo:(-0.5) ~hi:0.5 in
          let rcfg = Reintegration.config ~initial_corr cfg in
          let auto =
            Fault.crash_recover ~crash_phys ~recover_phys
              ~recovery:(Reintegration.automaton ~self_hint:pid rcfg)
              (Maintenance.automaton ~self_hint:pid cfg)
          in
          let proc, reader = Cluster.make_proc auto in
          Hashtbl.add life_readers pid reader;
          corr_readers.(pid) <- (fun () -> auto.Csync_process.Automaton.corr (reader ()));
          proc
        | None -> (
          match List.filter (fun (p, _, _) -> p = pid) corruptions with
          | [] ->
            let proc, reader = Maintenance.create ~self:pid cfg in
            corr_readers.(pid) <- (fun () -> Maintenance.corr (reader ()));
            proc
          | evs ->
            (* A transiently corrupted process runs under the stabilizing
               recovery wrapper, with its plan corruptions compiled to
               physical-clock instants and a per-event garbage salt. *)
            let schedule =
              List.map
                (fun (_, at, severity) ->
                  let phys = Hardware_clock.time clocks.(pid) at in
                  let salt = Rng.uniform corr_rng ~lo:(-1.) ~hi:1. in
                  (phys, severity, salt))
                evs
            in
            let scfg = Stabilize.config ~schedule cfg in
            let proc, reader = Stabilize.create ~self:pid scfg in
            Hashtbl.add stab_readers pid reader;
            corr_readers.(pid) <- (fun () -> Stabilize.corr (reader ()));
            proc))
  in
  let cluster = Cluster.create ~clocks ~delay ~procs () in
  let stats = Injector.stats () in
  Injector.install ~plan:t.plan ~rng:chaos_rng ~corrupt:Injector.corrupt_float
    ~stats (Cluster.buffer cluster);
  Cluster.schedule_starts_at_logical cluster ~t0 ~corrs:(Array.make n 0.);
  let tmax0 = Array.fold_left Float.max neg_infinity offsets in
  let round_real i = tmax0 +. (i *. big_p) in
  let warmup = round_real 2. in
  let t_end = round_real (float_of_int t.rounds) in
  let settle = settle_time t.params in
  let times =
    Sampling.grid ~from_time:warmup ~to_time:t_end ~count:(t.rounds * 8)
  in
  let gamma = Params.gamma t.params in
  let max_clean_skew = ref 0. in
  let checked = ref 0 and skipped = ref 0 and max_suspects = ref 0 in
  let obs = Csync_obs.Registry.installed () in
  let obs_clean_skew = Csync_obs.Registry.series obs "run.clean_skew" in
  (* Online agreement check over the clean (unsuspected) set: the same
     gamma the post-hoc [agreement_ok] verdict uses, but a violation is
     pinned to its first sample time as it happens. *)
  let mon = Csync_obs.Monitor.installed () in
  let mon_agree =
    Csync_obs.Monitor.Agreement.handle mon ~gamma ~from_time:warmup
  in
  (* Eventual-property monitors for the corrupted processes: re-entering
     gamma within the wrapper's recovery bound, and the correction gap
     closing again.  The gap bound allows the natural per-process
     correction spread (initial offsets) on top of agreement. *)
  let stab_rounds = Stabilize.recovery_round_bound t.params in
  let mon_stab =
    Csync_obs.Monitor.Stabilization.handle mon ~rounds:stab_rounds ~big_p
  in
  let mon_reconv =
    Csync_obs.Monitor.Reconvergence.handle mon ~rounds:stab_rounds ~big_p
      ~bound:(beta +. (2. *. gamma))
  in
  let corrupted_pids =
    List.sort_uniq Int.compare (List.map (fun (p, _, _) -> p) corruptions)
  in
  let last_corruption_at pid =
    List.fold_left
      (fun acc (p, at, _) -> if p = pid then Float.max acc at else acc)
      neg_infinity corruptions
  in
  let last_outside = Hashtbl.create 4 in
  (* Corruption instants are announced to the monitors (and the injection
     ledger) as the sample clock passes them. *)
  let pending_announce =
    ref (List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) corruptions)
  in
  (* Blame needs to know when the wrapper re-admitted each corrupted
     process; that is runtime knowledge, read back from the wrapper state
     at each sample.  A breach-free wrapper is re-admitted a fixed few
     rounds after the corruption (see [absorb_readmit_rounds]); a breached
     one at the round after its reintegration joined; a still-recovering
     one not at all. *)
  let readmissions_now () =
    List.concat_map
      (fun pid ->
        let st = (Hashtbl.find stab_readers pid) () in
        let joins =
          List.map
            (fun (jr, _) -> (pid, round_real (float_of_int (jr + 1))))
            (Stabilize.readmissions st)
        in
        if Stabilize.breaches st = 0 then
          List.filter_map
            (fun (p, at, _) ->
              if p = pid then
                Some (pid, at +. (absorb_readmit_rounds *. big_p))
              else None)
            corruptions
        else joins)
      corrupted_pids
  in
  let post_join = Hashtbl.create 4 in
  let joined_real pid =
    match Hashtbl.find_opt life_readers pid with
    | None -> None
    | Some reader -> (
      match Fault.recovered_state (reader ()) with
      | Some rstate when Reintegration.mode rstate = Reintegration.Joined -> (
        match Reintegration.join_round rstate with
        | Some jr -> Some (round_real (float_of_int (jr + 1)))
        | None -> None)
      | _ -> None)
  in
  Array.iter
    (fun time ->
      Cluster.run_until cluster time;
      (let rec announce () =
         match !pending_announce with
         | (pid, at, severity) :: rest when at <= time ->
           pending_announce := rest;
           Injector.note_state_corrupt ~stats ~pid ~at ~severity;
           Csync_obs.Monitor.Stabilization.corrupted mon_stab ~pid ~time:at;
           Csync_obs.Monitor.Reconvergence.corrupted mon_reconv ~pid ~time:at;
           announce ()
         | _ -> ()
       in
       announce ());
      let readmitted = readmissions_now () in
      let suspects = Plan.suspects_at ~readmitted t.plan ~settle ~time in
      max_suspects := max !max_suspects (List.length suspects);
      if List.length suspects > f then incr skipped
      else begin
        incr checked;
        let clean =
          List.filter (fun p -> not (List.mem p suspects)) (List.init n Fun.id)
        in
        let locals = List.map (Cluster.local_time cluster) clean in
        let lo = List.fold_left Float.min (List.hd locals) locals in
        let hi = List.fold_left Float.max (List.hd locals) locals in
        let skew = hi -. lo in
        max_clean_skew := Float.max !max_clean_skew skew;
        Csync_obs.Registry.Series.push obs_clean_skew time skew;
        Csync_obs.Monitor.Agreement.check mon_agree ~time ~skew;
        (* Track each corrupted process against the clean core: the last
           sample it spends outside gamma is its stabilization instant. *)
        List.iter
          (fun pid ->
            let at = last_corruption_at pid in
            if time >= at then begin
              let local_p = Cluster.local_time cluster pid in
              let skew_with =
                Float.max hi local_p -. Float.min lo local_p
              in
              let within_gamma = skew_with <= gamma in
              if not within_gamma then Hashtbl.replace last_outside pid time;
              Csync_obs.Monitor.Stabilization.observe mon_stab ~pid ~time
                ~within_gamma;
              let corrs = List.map (fun p -> corr_readers.(p) ()) clean in
              let sorted = List.sort Float.compare corrs in
              let median = List.nth sorted (List.length sorted / 2) in
              let gap = Float.abs (corr_readers.(pid) () -. median) in
              Csync_obs.Monitor.Reconvergence.observe mon_reconv ~pid ~time
                ~gap
            end)
          corrupted_pids;
        (* A rejoined ex-crasher is back inside the clean set once its
           suspicion window closes; record the skew it participates in. *)
        List.iter
          (fun (pid, _, _) ->
            if List.mem pid clean then
              match joined_real pid with
              | Some joined_at when time >= joined_at ->
                let prev =
                  Option.value (Hashtbl.find_opt post_join pid) ~default:0.
                in
                Hashtbl.replace post_join pid (Float.max prev skew)
              | _ -> ())
          crashes
      end)
    times;
  Csync_obs.Monitor.Stabilization.finish mon_stab ~time:t_end;
  Csync_obs.Monitor.Reconvergence.finish mon_reconv ~time:t_end;
  let recoveries =
    List.filter_map
      (fun (pid, _, recover_at) ->
        match recover_at with
        | None -> None
        | Some recover_time ->
          let join_round =
            match Hashtbl.find_opt life_readers pid with
            | None -> None
            | Some reader -> (
              match Fault.recovered_state (reader ()) with
              | Some rstate -> Reintegration.join_round rstate
              | None -> None)
          in
          Some
            {
              pid;
              recover_time;
              join_round;
              post_join_skew =
                Option.value (Hashtbl.find_opt post_join pid) ~default:0.;
            })
      crashes
  in
  let stabilizations =
    List.map
      (fun pid ->
        let st = (Hashtbl.find stab_readers pid) () in
        let at = last_corruption_at pid in
        let readmitted_at =
          match
            List.filter_map
              (fun (p, r) -> if p = pid && r > at then Some r else None)
              (readmissions_now ())
          with
          | [] -> None
          | rs -> Some (List.fold_left Float.min infinity rs)
        in
        {
          corrupted_pid = pid;
          corrupted_at = at;
          severity =
            List.fold_left
              (fun acc (p, _, s) -> if p = pid then Float.max acc s else acc)
              0. corruptions;
          wrapper_breaches = Stabilize.breaches st;
          applied = Stabilize.corruptions st;
          readmitted_at;
          healthy_at_end = Stabilize.mode st = Stabilize.Healthy;
          stabilized_in =
            (match Hashtbl.find_opt last_outside pid with
            | None -> 0.
            | Some last -> Float.max 0. (last -. at));
        })
      corrupted_pids
  in
  Csync_obs.Registry.(
    Counter.add (counter obs "chaos.samples.checked") !checked;
    Counter.add (counter obs "chaos.samples.skipped") !skipped;
    Gauge.observe_max (gauge obs "chaos.max_suspects") (float_of_int !max_suspects));
  {
    gamma;
    max_clean_skew = !max_clean_skew;
    checked_samples = !checked;
    skipped_samples = !skipped;
    max_suspects = !max_suspects;
    recoveries;
    stabilizations;
    stats;
  }

let agreement_ok r = r.checked_samples > 0 && r.max_clean_skew <= r.gamma

let recoveries_ok r =
  List.for_all
    (fun rec_ ->
      match rec_.join_round with
      | None -> false
      | Some _ -> rec_.post_join_skew <= r.gamma)
    r.recoveries

let stabilization_bound ~params =
  float_of_int (Stabilize.recovery_round_bound params)
  *. (params : Params.t).Params.big_p

let stabilizations_ok ~params r =
  let bound = stabilization_bound ~params in
  List.for_all
    (fun s ->
      s.applied > 0 && s.healthy_at_end && s.stabilized_in <= bound)
    r.stabilizations

let ok r = agreement_ok r && recoveries_ok r

type campaign_run = { seed : int; plan : Plan.t; result : result }

let single ?(rounds = 24) ?(corrupt = false) ~params ~seed () =
  if rounds < 15 then invalid_arg "Runner_chaos.single: need >= 15 rounds";
  let big_p = (params : Params.t).Params.big_p in
  let window =
    Plan.interval ~from_time:(2. *. big_p)
      ~until_time:(float_of_int (rounds - 12) *. big_p)
  in
  let gen_rng = Rng.create (seed lxor 0x5eed) in
  (* Every other seed is forced to include a crash + recovery, so the
     reintegration path is exercised throughout the campaign. *)
  let spec =
    Gen.spec ~include_crash:(seed mod 2 = 0) ~include_corrupt:corrupt ~params
      ~window ()
  in
  let plan = Gen.random ~rng:gen_rng spec in
  let result = run { params; seed; plan; rounds } in
  { seed; plan; result }

let campaign ?(rounds = 24) ?(corrupt = false) ?jobs ~params ~seeds () =
  if rounds < 15 then invalid_arg "Runner_chaos.campaign: need >= 15 rounds";
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  Pool.map_list ~jobs
    (fun seed -> single ~rounds ~corrupt ~params ~seed ())
    seeds
