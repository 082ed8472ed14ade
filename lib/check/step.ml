module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Reintegration = Csync_core.Reintegration
module Cluster = Csync_process.Cluster
module Hardware_clock = Csync_clock.Hardware_clock
module Drift = Csync_clock.Drift
module Delay = Csync_net.Delay

type outcome = {
  corrs : float array;
  adjs : float array;
  completed : bool array;
}

let round_start scope round =
  let p = scope.Scope.params in
  p.Params.t0 +. (float_of_int round *. p.Params.big_p)

(* The round is over - updates done, every in-window and Byzantine-late
   arrival delivered - well before 0.6 P: the latest event is an update at
   T_r + beta + delta + eps or a late Byzantine arrival at
   T_r + spread + delta + eps, both << 0.6 P at scope parameters.  The
   next round's broadcast timers (T_r + P - corr) stay undelivered. *)
let horizon scope round = round_start scope round +. (0.6 *. scope.Scope.params.Params.big_p)

let perfect_clocks n = Array.init n (fun _ -> Hardware_clock.create Drift.perfect)

let mk_cfg scope = Maintenance.config scope.Scope.params

let run_round ~scope ~round ~corrs ~byz_sends ~delay =
  let n_c = scope.Scope.n_correct in
  let n = Scope.n_total scope in
  let p = scope.Scope.params in
  let t_r = round_start scope round in
  let cfg = mk_cfg scope in
  let readers = Array.make n_c None in
  let procs =
    Array.init n (fun pid ->
        if pid < n_c then begin
          let auto = Maintenance.automaton ~self_hint:pid cfg in
          let auto =
            {
              auto with
              Csync_process.Automaton.initial =
                Maintenance.state_for_rejoin cfg ~corr:corrs.(pid) ~next_t:t_r
                  ~round;
            }
          in
          let proc, reader = Cluster.make_proc auto in
          readers.(pid) <- Some reader;
          proc
        end
        else fst (Cluster.make_proc (Byz.automaton byz_sends)))
  in
  let delay_model =
    Delay.per_link ~delta:p.Params.delta ~eps:p.Params.eps (fun ~src ~dst ->
        if src < n_c && dst < n_c then delay ~src ~dst else p.Params.delta)
  in
  let cluster =
    Cluster.create ~clocks:(perfect_clocks n) ~delay:delay_model ~procs ()
  in
  for pid = 0 to n_c - 1 do
    Cluster.schedule_start cluster ~pid ~time:(t_r -. corrs.(pid))
  done;
  if byz_sends <> [] then
    Cluster.schedule_start cluster ~pid:n_c ~time:(Byz.kick_time byz_sends);
  Cluster.run_until cluster (horizon scope round);
  let read pid = match readers.(pid) with Some r -> r () | None -> assert false in
  {
    corrs = Array.init n_c (fun pid -> Maintenance.corr (read pid));
    adjs =
      Array.init n_c (fun pid ->
          match List.rev (Maintenance.history (read pid)) with
          | rec_ :: _ -> rec_.Maintenance.adj
          | [] -> 0.);
    completed =
      Array.init n_c (fun pid ->
          Maintenance.rounds_completed (read pid) = round + 1);
  }

type reint_outcome = {
  m_corrs : float array;
  rejoiner : Reintegration.state;
  joined : bool;
  r_corr : float;
}

let fresh_rejoiner ~scope ~garbage =
  let cfg = Reintegration.config ~initial_corr:garbage (mk_cfg scope) in
  (Reintegration.automaton ~self_hint:scope.Scope.n_correct cfg)
    .Csync_process.Automaton.initial

(* A joined rejoiner runs [Maintenance.handle], which consumes its state
   (ARR is written in place), while the explorer expands every delay column
   from the same rejoiner state.  Each mini-simulation therefore starts from
   a private deep copy; the state holds only floats, arrays, lists and
   variants, so the copy is exact. *)
let private_copy (s : Reintegration.state) : Reintegration.state =
  Marshal.from_string (Marshal.to_string s []) 0

let run_reintegration_round ~scope ~round ~corrs ~rejoiner ~delay_to_rejoiner =
  let n_c = scope.Scope.n_correct in
  let n = n_c + 1 in
  let p = scope.Scope.params in
  let t_r = round_start scope round in
  let cfg = mk_cfg scope in
  let rcfg = Reintegration.config cfg in
  let readers = Array.make n_c None in
  let r_reader = ref None in
  let procs =
    Array.init n (fun pid ->
        if pid < n_c then begin
          let auto = Maintenance.automaton ~self_hint:pid cfg in
          let auto =
            {
              auto with
              Csync_process.Automaton.initial =
                Maintenance.state_for_rejoin cfg ~corr:corrs.(pid) ~next_t:t_r
                  ~round;
            }
          in
          let proc, reader = Cluster.make_proc auto in
          readers.(pid) <- Some reader;
          proc
        end
        else begin
          let auto = Reintegration.automaton ~self_hint:pid rcfg in
          let auto =
            { auto with Csync_process.Automaton.initial = private_copy rejoiner }
          in
          let proc, reader = Cluster.make_proc auto in
          r_reader := Some reader;
          proc
        end)
  in
  let delay_model =
    Delay.per_link ~delta:p.Params.delta ~eps:p.Params.eps (fun ~src ~dst ->
        if dst = n_c && src < n_c then delay_to_rejoiner ~src else p.Params.delta)
  in
  let cluster =
    Cluster.create ~clocks:(perfect_clocks n) ~delay:delay_model ~procs ()
  in
  for pid = 0 to n_c - 1 do
    Cluster.schedule_start cluster ~pid ~time:(t_r -. corrs.(pid))
  done;
  (* The rejoiner needs no START while observing or collecting (both ignore
     it); once joined it has lost its cross-round broadcast timer to the
     mini-simulation boundary, so re-kick it - START in the BCAST phase is
     exactly that timer. *)
  (match Reintegration.mode rejoiner with
  | Reintegration.Joined ->
    Cluster.schedule_start cluster ~pid:n_c
      ~time:(t_r -. Reintegration.corr rejoiner)
  | Reintegration.Observing | Reintegration.Collecting -> ());
  Cluster.run_until cluster (horizon scope round);
  let read pid = match readers.(pid) with Some r -> r () | None -> assert false in
  let rejoiner' = match !r_reader with Some r -> r () | None -> assert false in
  {
    m_corrs = Array.init n_c (fun pid -> Maintenance.corr (read pid));
    rejoiner = rejoiner';
    joined = Reintegration.mode rejoiner' = Reintegration.Joined;
    r_corr = Reintegration.corr rejoiner';
  }
