module Rng = Csync_sim.Rng
module Hardware_clock = Csync_clock.Hardware_clock
module Collision = Csync_net.Collision
module Cluster = Csync_process.Cluster
module Params = Csync_core.Params
module Averaging = Csync_core.Averaging
module Maintenance = Csync_core.Maintenance
module Adversary = Csync_core.Adversary
module Bounds = Csync_core.Bounds
module Mon = Csync_obs.Monitor

type clock_kind = Env.clock_kind = Perfect | Drifting | Adversarial_drift

type delay_kind = Env.delay_kind = Constant_delay | Uniform_delay | Extreme_delay

type fault_spec =
  | Silent
  | Pull of float
  | Two_faced of { spread : float; split : int }
  | Adaptive_two_faced of { split : int; faulty_from : int }
  | Two_faced_late of { offset_a : float; offset_b : float; split : int }
  | Jitter of float
  | Flood of int
  | Lying of float

type t = {
  params : Params.t;
  seed : int;
  averaging : Averaging.t;
  exchanges : int;
  stagger : float;
  clock_kind : clock_kind;
  delay_kind : delay_kind;
  faults : (int * fault_spec) list;
  offset_spread : float;
  collision : (int * float) option;
  rounds : int;
  samples_per_round : int;
  graph : Csync_topo.Graph.t option;
}

let default ?(seed = 42) (params : Params.t) =
  {
    params;
    seed;
    averaging = Averaging.midpoint;
    exchanges = 1;
    stagger = 0.;
    clock_kind = Drifting;
    delay_kind = Uniform_delay;
    faults = [];
    offset_spread = params.Params.beta *. 0.9;
    collision = None;
    rounds = 30;
    samples_per_round = 8;
    graph = None;
  }

let with_standard_faults t =
  let { Params.n; f; beta; _ } = t.params in
  let faults =
    List.init f (fun i ->
        let pid = n - 1 - i in
        let spec =
          if i = 0 then Silent
          else if i = 1 then Two_faced { spread = beta; split = n / 2 }
          else Pull beta
        in
        (pid, spec))
  in
  { t with faults }

type result = {
  scenario : t;
  nonfaulty : int list;
  sampling : Sampling.t;
  max_skew : float;
  steady_skew : float;
  adjustments : float array;
  round_spread : (int * float) list;
  validity : [ `Holds | `Violated of Sampling.sample ];
  tmin0 : float;
  tmax0 : float;
  messages : int;
  dropped : int;
  histories : (int * Maintenance.round_record list) list;
}

let build_fault t ~rng spec =
  let params = t.params in
  match spec with
  | Silent -> Adversary.silent ()
  | Pull offset -> Adversary.pull ~params ~offset
  | Two_faced { spread; split } -> Adversary.two_faced ~params ~spread ~split
  | Adaptive_two_faced { split; faulty_from } ->
    Adversary.adaptive_two_faced ~params ~split ~faulty_from
  | Two_faced_late { offset_a; offset_b; split } ->
    Adversary.two_faced_late ~params ~offset_a ~offset_b ~split
  | Jitter magnitude -> Adversary.random_jitter ~params ~rng:(Rng.split rng) ~magnitude
  | Flood copies -> Adversary.flood ~params ~copies
  | Lying value_offset -> Adversary.lying_value ~params ~value_offset

let run t =
  let { Params.n; beta; big_p; rho; delta; eps; t0; _ } = t.params in
  if t.offset_spread > beta then
    invalid_arg "Scenario.run: offset_spread exceeds beta (violates A4)";
  List.iter
    (fun (pid, _) ->
      if pid < 0 || pid >= n then invalid_arg "Scenario.run: fault pid out of range")
    t.faults;
  let is_faulty pid = List.mem_assoc pid t.faults in
  let env =
    Env.make ~params:t.params ~seed:t.seed ~clock_kind:t.clock_kind
      ~delay_kind:t.delay_kind ~is_faulty ~offset_spread:t.offset_spread
      ~rounds:t.rounds
  in
  let collision =
    match t.collision with
    | None -> Collision.none
    | Some (capacity, window) -> Collision.bounded_buffer ~n ~capacity ~window
  in
  let cfg =
    Maintenance.config ~averaging:t.averaging ~exchanges:t.exchanges
      ~stagger:t.stagger t.params
  in
  let readers = Hashtbl.create n in
  let procs =
    Array.init n (fun pid ->
        match List.assoc_opt pid t.faults with
        | Some spec -> build_fault t ~rng:env.Env.rng spec
        | None ->
          let proc, reader = Maintenance.create ~self:pid cfg in
          Hashtbl.add readers pid reader;
          proc)
  in
  let cluster =
    Cluster.create ~clocks:env.Env.clocks ?graph:t.graph ~delay:env.Env.delay
      ~collision ~exchanges:t.exchanges ~procs ()
  in
  Cluster.schedule_starts_at_logical cluster ~t0 ~corrs:(Array.make n 0.);
  let tmin0 = Env.tmin0 env and tmax0 = Env.tmax0 env in
  let t_end = env.Env.horizon -. 1. in
  let samples = max 2 (t.rounds * t.samples_per_round) in
  let times = Sampling.grid ~from_time:tmax0 ~to_time:t_end ~count:samples in
  let warmup = tmax0 +. (2. *. big_p *. (1. +. (2. *. rho))) in
  (* Online monitors: the ambient monitor (no-op unless [--monitor]
     installed one) sees every sample as it is taken — agreement skew
     against gamma past the warmup horizon, and the Theorem 19 validity
     envelope — instead of only the post-hoc summaries below. *)
  let mon = Mon.installed () in
  let on_sample =
    if not (Mon.enabled mon) then None
    else begin
      let agree_h =
        Mon.Agreement.handle mon ~gamma:(Params.gamma t.params)
          ~from_time:warmup
      in
      let alpha1, alpha2, alpha3 = Params.validity t.params in
      let valid_h =
        Mon.Validity.handle mon ~alpha1 ~alpha2 ~alpha3 ~t0 ~tmin0 ~tmax0
      in
      Some
        (fun (s : Sampling.sample) ->
          Mon.Agreement.check agree_h ~time:s.time ~skew:s.skew;
          Mon.Validity.check valid_h ~time:s.time ~min_local:s.min_local
            ~max_local:s.max_local)
    end
  in
  let sampling =
    Sampling.run ?on_sample ~cluster ~observe:env.Env.nonfaulty ~times ()
  in
  let histories =
    List.map
      (fun pid -> (pid, Maintenance.history ((Hashtbl.find readers pid) ())))
      env.Env.nonfaulty
  in
  (* Per-round real-time spread of round starts (the paper's B^i <= beta),
     from the physical broadcast timestamps mapped back through each clock.
     A staggered process broadcasts pid * stagger after its round start, so
     that offset comes off before the inversion. *)
  let round_spread =
    let table : (int, float list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (pid, records) ->
        List.iter
          (fun (r : Maintenance.round_record) ->
            if r.Maintenance.exchange = 0 then begin
              let real =
                Hardware_clock.inverse (Cluster.clock cluster pid)
                  (r.Maintenance.broadcast_phys
                  -. (float_of_int pid *. t.stagger))
              in
              let prev =
                Option.value (Hashtbl.find_opt table r.Maintenance.round) ~default:[]
              in
              Hashtbl.replace table r.Maintenance.round (real :: prev)
            end)
          records)
      histories;
    Hashtbl.fold
      (fun round reals acc ->
        if List.length reals = List.length env.Env.nonfaulty then begin
          let lo = List.fold_left Float.min infinity reals in
          let hi = List.fold_left Float.max neg_infinity reals in
          (round, hi -. lo) :: acc
        end
        else acc)
      table []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (* Error-halving monitor (Lemmas 9/10): consecutive round-start spreads
     must contract under the maintenance recurrence. *)
  if Mon.enabled mon then begin
    let halving_h =
      Mon.Halving.handle mon
        ~recurrence:(Bounds.maintenance_recurrence ~rho ~delta ~eps ~big_p)
    in
    List.iter
      (fun (round, spread) -> Mon.Halving.observe halving_h ~round ~spread)
      round_spread
  end;
  let adjustments =
    histories
    |> List.concat_map (fun (_, records) ->
           List.map
             (fun (r : Maintenance.round_record) -> Float.abs r.Maintenance.adj)
             records)
    |> Array.of_list
  in
  {
    scenario = t;
    nonfaulty = env.Env.nonfaulty;
    sampling;
    max_skew = Sampling.max_skew ~from_time:warmup sampling;
    steady_skew = Sampling.steady_skew sampling;
    adjustments;
    round_spread;
    validity = Sampling.validity_check sampling ~params:t.params ~tmin0 ~tmax0;
    tmin0;
    tmax0;
    messages = Cluster.messages_sent cluster;
    dropped = Cluster.messages_dropped cluster;
    histories;
  }
