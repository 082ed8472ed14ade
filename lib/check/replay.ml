module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Cluster = Csync_process.Cluster
module Hardware_clock = Csync_clock.Hardware_clock
module Drift = Csync_clock.Drift
module Delay = Csync_net.Delay
module Mon = Csync_obs.Monitor

type t = {
  round_spreads : float array;
  final_corrs : float array;
  skew : float;
  delay_log : Mon.Prov.entry list;
}

(* The run records into a monitor of its own, with no checks: its
   provenance ring is the delay log, and the caller's monitor sees none of
   the replay. *)
let run (cex : Cex.t) =
  let caller = Mon.installed () in
  let mon = Mon.create ~checks:[] () in
  Mon.install mon;
  Fun.protect ~finally:(fun () -> Mon.install caller) @@ fun () ->
  let p = cex.Cex.params in
  let n_c = cex.Cex.n_correct in
  let n = n_c + if cex.Cex.has_byz then 1 else 0 in
  let depth = Cex.depth cex in
  let rounds = Array.of_list cex.Cex.rounds in
  let cfg = Maintenance.config p in
  let readers = Array.make n_c None in
  let agenda =
    List.concat_map (fun rc -> rc.Cex.sends) cex.Cex.rounds
  in
  let procs =
    Array.init n (fun pid ->
        if pid < n_c then begin
          let auto = Maintenance.automaton ~self_hint:pid cfg in
          let auto =
            {
              auto with
              Csync_process.Automaton.initial =
                Maintenance.state_for_rejoin cfg ~corr:cex.Cex.init.(pid)
                  ~next_t:p.Params.t0 ~round:0;
            }
          in
          let proc, reader = Cluster.make_proc auto in
          readers.(pid) <- Some reader;
          proc
        end
        else fst (Cluster.make_proc (Byz.automaton agenda)))
  in
  (* One continuous run: the delay model looks the round up from the send
     time.  Nonfaulty sends happen within beta of T_r and Byzantine sends
     within spread, both << P/2, so nearest-round is unambiguous. *)
  let round_of now =
    let r =
      int_of_float (Float.round ((now -. p.Params.t0) /. p.Params.big_p))
    in
    if r < 0 then 0 else if r >= depth then depth - 1 else r
  in
  let delay =
    Delay.adversarial ~delta:p.Params.delta ~eps:p.Params.eps
      (fun ~src ~dst ~now ->
        if src < n_c && dst < n_c then
          rounds.(round_of now).Cex.delays.(src).(dst)
        else p.Params.delta)
  in
  let cluster =
    Cluster.create
      ~clocks:(Array.init n (fun _ -> Hardware_clock.create Drift.perfect))
      ~delay ~procs ()
  in
  for pid = 0 to n_c - 1 do
    Cluster.schedule_start cluster ~pid
      ~time:(p.Params.t0 -. cex.Cex.init.(pid))
  done;
  if agenda <> [] then
    Cluster.schedule_start cluster ~pid:n_c ~time:(Byz.kick_time agenda);
  let spreads =
    Array.init depth (fun r ->
        let t_r = p.Params.t0 +. (float_of_int r *. p.Params.big_p) in
        Cluster.run_until cluster (t_r +. (0.6 *. p.Params.big_p));
        let corrs =
          Array.init n_c (fun pid ->
              match readers.(pid) with
              | Some rd -> Maintenance.corr (rd ())
              | None -> assert false)
        in
        State.spread corrs)
  in
  let final_corrs =
    Array.init n_c (fun pid ->
        match readers.(pid) with
        | Some rd -> Maintenance.corr (rd ())
        | None -> assert false)
  in
  {
    round_spreads = spreads;
    final_corrs;
    skew = (if depth = 0 then State.spread final_corrs else spreads.(depth - 1));
    delay_log =
      Mon.Prov.recent mon ~below:(Cluster.messages_sent cluster) max_int;
  }

type mismatch = {
  at : float;
  src : int;
  dst : int;
  expected : float;
  actual : float;
}

let diff_provenance (cex : Cex.t) log =
  let p = cex.Cex.params in
  let n_c = cex.Cex.n_correct in
  let depth = Cex.depth cex in
  let rounds = Array.of_list cex.Cex.rounds in
  let round_of now =
    let r =
      int_of_float (Float.round ((now -. p.Params.t0) /. p.Params.big_p))
    in
    if r < 0 then 0 else if r >= depth then depth - 1 else r
  in
  List.filter_map
    (fun (d : Mon.Prov.entry) ->
      let expected =
        if d.src < n_c && d.dst < n_c then
          rounds.(round_of d.sent).Cex.delays.(d.src).(d.dst)
        else p.Params.delta
      in
      if d.delay = expected then None
      else
        Some
          { at = d.sent; src = d.src; dst = d.dst; expected; actual = d.delay })
    log
