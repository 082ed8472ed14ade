module Engine = Csync_sim.Engine
module Event_queue = Csync_sim.Event_queue
module Obs = Csync_obs.Registry
module Mon = Csync_obs.Monitor

type 'm body = Start | Timer of float | Msg of 'm

type 'm delivery = {
  mutable src : int;
  mutable dst : int;
  mutable prov : Mon.Prov.id;
  mutable body : 'm body;
}

type 'm fate = { payload : 'm; extra_delay : float }

type 'm tamper = now:float -> src:int -> dst:int -> 'm -> 'm fate list

type 'm t = {
  n : int;
  graph : Csync_topo.Graph.t option;
  delay : Delay.t;
  collision : Collision.t;
  engine : 'm delivery Engine.t;
  (* Free-list slab of delivery records.  Every scheduled event owns one
     record; the cluster returns it through [release] once the event has
     been handled, so a steady-state run stops allocating delivery records
     entirely.  [slab.(0 .. n_free-1)] are free. *)
  mutable slab : 'm delivery array;
  mutable n_free : int;
  mutable sent : int;
  mutable tamper : 'm tamper option;
  mon : Mon.t;
  obs_sent : Obs.Counter.handle;
  obs_tamper_drops : Obs.Counter.handle;
  obs_tamper_copies : Obs.Counter.handle;
  obs_collisions : Obs.Counter.handle;
  obs_delay : Obs.Hist.handle;
  obs_link_delay : Obs.Grid.handle;
}

let create ~n ?graph ~delay ?(collision = Collision.none) ~engine () =
  if n <= 0 then invalid_arg "Message_buffer.create: nonpositive n";
  (match graph with
  | Some g when Csync_topo.Graph.n g <> n ->
    invalid_arg "Message_buffer.create: graph size mismatch"
  | _ -> ());
  let obs = Obs.installed () in
  let lo, hi = Delay.bounds delay in
  let hi = if hi > lo then hi else lo +. 1e-9 in
  {
    n;
    graph;
    delay;
    collision;
    engine;
    slab = [||];
    n_free = 0;
    sent = 0;
    tamper = None;
    mon = Mon.installed ();
    obs_sent = Obs.counter obs "net.sent";
    obs_tamper_drops = Obs.counter obs "net.tamper.drops";
    obs_tamper_copies = Obs.counter obs "net.tamper.copies";
    obs_collisions = Obs.counter obs "net.collision_dropped";
    obs_delay = Obs.hist obs ~lo ~hi ~bins:20 "net.delay";
    obs_link_delay = Obs.hist_grid obs ~lo ~hi ~bins:20 ~n "net.delay";
  }

let observe_delay t ~src ~dst d =
  Obs.Hist.add t.obs_delay d;
  Obs.Grid.add t.obs_link_delay ~src ~dst d

(* Reuse a released record when one is available; the fresh-allocation path
   only runs while the in-flight high-water mark is still rising. *)
let acquire t ~src ~dst ~prov ~body =
  let i = t.n_free - 1 in
  if i < 0 then { src; dst; prov; body }
  else begin
    t.n_free <- i;
    let d = Array.unsafe_get t.slab i in
    d.src <- src;
    d.dst <- dst;
    d.prov <- prov;
    d.body <- body;
    d
  end

let release t d =
  (* Drop the payload reference so a parked record cannot retain it. *)
  d.body <- Start;
  d.prov <- Mon.Prov.null;
  let cap = Array.length t.slab in
  if t.n_free = cap then begin
    let grown = Array.make (max 16 (2 * cap)) d in
    Array.blit t.slab 0 grown 0 t.n_free;
    t.slab <- grown
  end;
  t.slab.(t.n_free) <- d;
  t.n_free <- t.n_free + 1

let set_tamper t f = t.tamper <- Some f

let n t = t.n

let graph t = t.graph

let engine t = t.engine

let delay_model t = t.delay

let check_pid t pid name =
  if pid < 0 || pid >= t.n then invalid_arg ("Message_buffer." ^ name ^ ": pid out of range")

let schedule_start t ~dst ~time =
  check_pid t dst "schedule_start";
  Engine.schedule t.engine ~time ~prio:Event_queue.prio_message
    (acquire t ~src:dst ~dst ~prov:Mon.Prov.null ~body:Start)

let send t ~src ~dst m =
  check_pid t src "send";
  check_pid t dst "send";
  let now = Engine.now t.engine in
  t.sent <- t.sent + 1;
  Obs.Counter.incr t.obs_sent;
  match t.tamper with
  | None ->
    (* Fast path for the untampered cluster: no fate record, no closure -
       this is every message of every fault-free simulation. *)
    let d = Delay.draw t.delay ~src ~dst ~now in
    observe_delay t ~src ~dst d;
    let prov = Mon.Prov.mint t.mon ~src ~dst ~sent:now ~delay:d in
    Engine.schedule t.engine ~time:(now +. d) ~prio:Event_queue.prio_message
      (acquire t ~src ~dst ~prov ~body:(Msg m))
  | Some f ->
    let fates = f ~now ~src ~dst m in
    (match fates with
    | [] -> Obs.Counter.incr t.obs_tamper_drops
    | [ _ ] -> ()
    | _ :: extra -> Obs.Counter.add t.obs_tamper_copies (List.length extra));
    List.iter
      (fun { payload; extra_delay } ->
        if extra_delay < 0. then
          invalid_arg "Message_buffer.send: negative extra delay";
        (* Each copy draws its own in-model delay; the tamper's extra delay
           is added on top, so chaos-injected latency can exceed
           delta + eps. *)
        let d = Delay.draw t.delay ~src ~dst ~now in
        observe_delay t ~src ~dst (d +. extra_delay);
        (* Every copy of this send shares the fault kinds the injector
           staged while deciding the fates. *)
        let prov =
          Mon.Prov.mint t.mon ~src ~dst ~sent:now ~delay:(d +. extra_delay)
        in
        Engine.schedule t.engine ~time:(now +. d +. extra_delay)
          ~prio:Event_queue.prio_message
          (acquire t ~src ~dst ~prov ~body:(Msg payload)))
      fates;
    Mon.Prov.clear_staged t.mon

(* On the full mesh (graph = None, or a Complete graph whose broadcast
   list is 0 .. n-1) the two paths send to the same destinations in the
   same order, so provenance ids agree byte for byte. *)
let broadcast t ~src m =
  match t.graph with
  | None ->
    for dst = 0 to t.n - 1 do
      send t ~src ~dst m
    done
  | Some g -> Csync_topo.Graph.iter_bcast g ~src (fun dst -> send t ~src ~dst m)

let set_timer t ~dst ~at_real ~phys_value =
  check_pid t dst "set_timer";
  let now = Engine.now t.engine in
  if at_real <= now then false
  else begin
    Engine.schedule t.engine ~time:at_real ~prio:Event_queue.prio_timer
      (acquire t ~src:dst ~dst ~prov:Mon.Prov.null ~body:(Timer phys_value));
    true
  end

let admit t delivery ~now =
  match delivery.body with
  | Start | Timer _ -> true
  | Msg _ ->
    let ok = Collision.admit t.collision ~dst:delivery.dst ~now in
    if not ok then Obs.Counter.incr t.obs_collisions;
    ok

let sent_count t = t.sent

let dropped_count t = Collision.dropped t.collision
