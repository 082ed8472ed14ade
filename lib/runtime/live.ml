module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Stabilize = Csync_core.Stabilize
module Reintegration = Csync_core.Reintegration
module Gradient = Csync_topo.Gradient
module Rng = Csync_sim.Rng
module Plan = Csync_chaos.Plan
module Injector = Csync_chaos.Injector
module Json = Csync_obs.Json

type node_report = {
  pid : int;
  injected_offset : float;
  injected_rate : float;
  final_corr : float;
  rounds : int;
  corruptions : int;
  breaches : int;
  sent : int;
  received : int;
  malformed : int;
  send_errors : int;
}

type report = {
  nodes : node_report list;
  initial_skew : float;
  final_skew : float;
  duration : float;
}

let run_maintenance ?(base_port = 17_400) ?(seed = 1) ?plan ?active
    ?telemetry_port ?(telemetry_period = 0.25) ?restart
    ~(params : Params.t) ~duration ?(stagger = 0.) () =
  let n = params.Params.n in
  let active = match active with None -> List.init n Fun.id | Some a -> a in
  List.iter
    (fun pid ->
      if pid < 0 || pid >= n then
        invalid_arg "Live.run_maintenance: active pid out of range")
    active;
  (match restart with
   | None -> ()
   | Some (pid, stop_at, resume_at) ->
     if not (List.mem pid active) then
       invalid_arg "Live.run_maintenance: restart pid not active";
     if not (0. < stop_at && stop_at < resume_at && resume_at < duration) then
       invalid_arg "Live.run_maintenance: restart window out of order");
  (match plan with None -> () | Some p -> Plan.validate ~n p);
  let rng = Rng.create seed in
  let epoch = Wall_clock.host_now () +. 0.05 in
  let offsets =
    Array.init n (fun pid ->
        if pid = 0 then 0.
        else Rng.uniform rng ~lo:0. ~hi:(params.Params.beta *. 0.9))
  in
  let rates =
    Array.init n (fun _ ->
        Rng.uniform rng
          ~lo:(1. /. (1. +. params.Params.rho))
          ~hi:(1. +. params.Params.rho))
  in
  let peers = List.init n (fun pid -> (pid, base_port + pid)) in
  let cfg = Maintenance.config ~stagger params in
  let stats = Injector.stats () in
  (* The emitter bakes the theoretical envelopes into every node
     manifest so the collector side needs no dependency on the
     algorithm layer: gamma is the paper's Theorem 16 bound, kappa the
     per-hop gradient allowance at gain 1 (full midpoint jump). *)
  let manifest pid =
    Json.Obj
      [
        ("record", Json.Str "manifest");
        ("schema", Json.Str "csync-trace/1");
        ("target", Json.Str "live-fleet");
        ("node", Json.num_of_int pid);
        ( "params",
          Json.Obj
            [
              ("n", Json.num_of_int n);
              ("f", Json.num_of_int params.Params.f);
              ("rho", Json.Num params.Params.rho);
              ("delta", Json.Num params.Params.delta);
              ("eps", Json.Num params.Params.eps);
              ("beta", Json.Num params.Params.beta);
              ("big_p", Json.Num params.Params.big_p);
              ("gamma", Json.Num (Params.gamma params));
              ( "kappa",
                Json.Num
                  (Gradient.kappa ~rho:params.Params.rho ~eps:params.Params.eps
                     ~period:params.Params.big_p ~gain:1.) );
            ] );
      ]
  in
  (* Latest instance per pid - the restart pid replaces its slot when it
     comes back.  Each thread writes only its own index; reads happen
     from the emitter's own thread and after the joins. *)
  let slots : (Node.t * (unit -> float * int * int * int)) option array =
    Array.make n None
  in
  (* Wire a node instance to its own telemetry emitter: the node's
     receive tap feeds exchanged-timestamp samples, and just before each
     flush the emitter polls automaton and socket state into gauges. *)
  let install pid mk =
    let em =
      match telemetry_port with
      | None -> None
      | Some port ->
        let on_flush reg =
          match slots.(pid) with
          | None -> ()
          | Some (node, info) ->
            let g name v = Csync_obs.Registry.(Gauge.set (gauge reg name) v) in
            let corr, rounds, _, _ = info () in
            g "fleet.round" (float_of_int rounds);
            g "fleet.corr" corr;
            g "fleet.sent" (float_of_int (Node.messages_sent node));
            g "fleet.received" (float_of_int (Node.messages_received node));
            g "fleet.malformed" (float_of_int (Node.malformed node))
        in
        Some
          (Emitter.create ~src:pid ~peers:n ~port ~period:telemetry_period
             ~on_flush ~manifest:(manifest pid) ())
    in
    let tap =
      Option.map
        (fun em ~peer ~value ~own -> Emitter.sample em ~peer ~own ~value)
        em
    in
    let node, info = mk ~tap in
    slots.(pid) <- Some (node, info);
    (node, em)
  in
  let stabilize_node pid clock recv_filter scfg ~tap =
    let node, reader =
      Node.create ~self:pid ~port:(base_port + pid) ~peers ~clock
        ~automaton:(Stabilize.automaton ~self_hint:pid scfg) ?recv_filter ?tap
        ()
    in
    ( node,
      fun () ->
        let s = reader () in
        ( Stabilize.corr s,
          Stabilize.rounds_completed s,
          Stabilize.corruptions s,
          Stabilize.breaches s ) )
  in
  (* A restarted process has lost its automaton state (CORR included)
     but kept its hardware clock; it rejoins through the paper's
     Section 9.1 reintegration - observe f+1 distinct broadcasters,
     collect one full round, join - then continues as plain
     maintenance. *)
  let rejoin_node pid clock recv_filter ~tap =
    let rcfg = Reintegration.config cfg in
    let node, reader =
      Node.create ~self:pid ~port:(base_port + pid) ~peers ~clock
        ~automaton:(Reintegration.automaton ~self_hint:pid rcfg) ?recv_filter
        ?tap ()
    in
    ( node,
      fun () ->
        let s = reader () in
        let rounds =
          match Reintegration.maintenance_state s with
          | Some m -> Maintenance.rounds_completed m
          | None -> 0
        in
        (Reintegration.corr s, rounds, 0, 0) )
  in
  let nodes =
    List.map
      (fun pid ->
        let clock =
          Wall_clock.create ~epoch ~offset:(params.Params.t0 +. offsets.(pid))
            ~rate:rates.(pid) ()
        in
        (* The filter applies on the receive side only: each receiver
           judges its own inbound link, so a lossy or cut src->dst link
           is sampled exactly once per datagram. *)
        (* Plan state corruptions aimed at this node become a Stabilize
           schedule in its own clock's readings; the wrapper applies the
           garbage at the scheduled instant and must then detect and
           recover.  Detection stays off for clean nodes, making their
           wrapper a transparent pass-through. *)
        let corruption_events =
          match plan with
          | None -> []
          | Some plan ->
            List.filter
              (fun (p, _, _) -> p = pid)
              (Plan.corruption_schedule plan)
        in
        let recv_filter =
          match plan with
          | None -> None
          | Some plan ->
            let link =
              Injector.live_link ~plan ~rng:(Rng.split rng) ~stats ~self:pid
                ~epoch
            in
            Some (fun ~now ~peer -> link ~now ~dir:`Recv ~peer)
        in
        let schedule =
          List.map
            (fun (_, at, severity) ->
              ( Wall_clock.of_wall clock (epoch +. at),
                severity,
                Rng.uniform rng ~lo:(-1.) ~hi:1. ))
            corruption_events
        in
        let scfg =
          Stabilize.config ~detect:(corruption_events <> []) ~schedule cfg
        in
        List.iter
          (fun (_, at, severity) ->
            Injector.note_state_corrupt ~stats ~pid ~at ~severity)
          corruption_events;
        let node, em =
          install pid (stabilize_node pid clock recv_filter scfg)
        in
        (pid, node, em, clock, recv_filter))
      active
  in
  let until = epoch +. duration in
  let threads =
    List.map
      (fun (pid, node, em, clock, recv_filter) ->
        Thread.create
          (fun () ->
            (* START when the node's own clock reads T0, per A4. *)
            let start_at = Wall_clock.wall_of clock params.Params.t0 in
            match restart with
            | Some (rpid, stop_at, resume_at) when rpid = pid ->
              (* Crash at the stop instant: the run returns, the socket
                 closes, all automaton state is gone. *)
              Node.run node ~start_at
                ~until:(Float.min until (epoch +. stop_at));
              Option.iter Emitter.close em;
              let nap = epoch +. resume_at -. Wall_clock.host_now () in
              if nap > 0. then Thread.delay nap;
              (* Restart with a fresh emitter stream - from the
                 collector's side this is the reconnect path. *)
              let node2, em2 = install pid (rejoin_node pid clock recv_filter) in
              Node.run node2 ~start_at:(Wall_clock.host_now ()) ~until;
              Option.iter Emitter.close em2
            | _ ->
              Node.run node ~start_at ~until;
              Option.iter Emitter.close em)
          ())
      nodes
  in
  List.iter Thread.join threads;
  let wall_end = Wall_clock.host_now () in
  let obs = Csync_obs.Registry.installed () in
  let reports =
    List.map
      (fun (pid, _, _, _clock, _) ->
        (* The latest instance: for the restarted pid this is the
           reintegrated one, whose CORR is the value that matters for
           the final skew. *)
        let node, info =
          match slots.(pid) with Some x -> x | None -> assert false
        in
        let corr, rounds, corruptions, breaches = info () in
        if Csync_obs.Registry.enabled obs then begin
          let gauge name v =
            Csync_obs.Registry.(
              Gauge.set (gauge obs (Printf.sprintf "live.p%d.%s" pid name)) v)
          in
          let received = Node.messages_received node in
          gauge "recv_rate"
            (if duration > 0. then float_of_int received /. duration else 0.);
          gauge "rounds" (float_of_int rounds);
          (* Per-peer liveness: seconds since the last datagram from each
             peer, measured at the end of the run. *)
          List.iter
            (fun (peer, _, _, _, _) ->
              if peer <> pid then
                match Node.last_heard node ~peer with
                | Some at ->
                  gauge
                    (Printf.sprintf "last_heard.p%d" peer)
                    (wall_end -. at)
                | None -> ())
            nodes
        end;
        {
          pid;
          injected_offset = offsets.(pid);
          injected_rate = rates.(pid);
          final_corr = corr;
          rounds;
          corruptions;
          breaches;
          sent = Node.messages_sent node;
          received = Node.messages_received node;
          malformed = Node.malformed node;
          send_errors = Node.send_errors node;
        })
      nodes
  in
  (* Local time of node p at wall w: offset_p + rate_p (w - epoch) + corr_p
     (+ wall itself, common to everyone).  Spread over p is the skew. *)
  let local_bias r =
    r.injected_offset
    +. ((r.injected_rate -. 1.) *. (wall_end -. epoch))
    +. r.final_corr
  in
  let biases = List.map local_bias reports in
  let spread l =
    List.fold_left Float.max (List.hd l) l
    -. List.fold_left Float.min (List.hd l) l
  in
  {
    nodes = reports;
    initial_skew =
      spread (List.map (fun pid -> offsets.(pid)) active);
    final_skew = spread biases;
    duration;
  }
