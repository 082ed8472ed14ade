module Obs = Csync_obs.Registry

type 'a t = {
  queue : 'a Event_queue.t;
  mutable now : float;
  obs_events : Obs.Counter.handle;
  obs_depth_hw : Obs.Gauge.handle;
  obs_occ_hw : Obs.Gauge.handle;
  (* Int shadows of the two high-water gauges: the gauges only see a new
     maximum, so a steady-state schedule boxes no float. *)
  mutable depth_hw : int;
  mutable occ_hw : int;
}

(* The ambient registry is captured once, at creation; with telemetry
   disabled both handles are permanent no-ops and the hot path below
   costs one branch. *)
let create ?width ?expected () =
  let obs = Obs.installed () in
  {
    queue = Event_queue.create ?width ?expected ();
    now = 0.;
    obs_events = Obs.counter obs "sim.events";
    obs_depth_hw = Obs.gauge obs "sim.queue_depth_hw";
    obs_occ_hw = Obs.gauge obs "sim.queue_occupancy_hw";
    depth_hw = -1;
    occ_hw = -1;
  }

let now t = t.now

let schedule t ~time ?(prio = Event_queue.prio_message) payload =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now %g" time t.now);
  Event_queue.add t.queue ~time ~prio payload;
  if Obs.Gauge.active t.obs_depth_hw then begin
    let depth = Event_queue.size t.queue in
    if depth > t.depth_hw then begin
      t.depth_hw <- depth;
      Obs.Gauge.observe_max t.obs_depth_hw (float_of_int depth)
    end;
    let occ = Event_queue.occupancy t.queue in
    if occ > t.occ_hw then begin
      t.occ_hw <- occ;
      Obs.Gauge.observe_max t.obs_occ_hw (float_of_int occ)
    end
  end

let pending t = Event_queue.size t.queue

let peek_time t = Event_queue.peek_time t.queue

let next t =
  match Event_queue.pop t.queue with
  | None -> None
  | Some (time, payload) ->
    t.now <- time;
    Obs.Counter.incr t.obs_events;
    Some (time, payload)

let step t ~handler =
  match next t with
  | None -> false
  | Some (time, payload) ->
    handler time payload;
    true

let run_until t ~until ~handler =
  (* One queue traversal per event (no peek-then-pop), and no per-event
     option/tuple allocation: the closure advances [now] before handing the
     event to [handler]. *)
  let deliver time payload =
    t.now <- time;
    Obs.Counter.incr t.obs_events;
    handler time payload
  in
  ignore (Event_queue.iter_pop_until t.queue ~until ~f:deliver);
  if until > t.now then t.now <- until

exception Drained

let drain t ~handler ~max_events =
  (* Same fused single-traversal loop as [run_until]; the exception only
     fires when the [max_events] guard trips. *)
  let delivered = ref 0 in
  let deliver time payload =
    t.now <- time;
    Obs.Counter.incr t.obs_events;
    handler time payload;
    incr delivered;
    if !delivered >= max_events then raise Drained
  in
  (try
     ignore (Event_queue.iter_pop_until t.queue ~until:Float.infinity ~f:deliver)
   with Drained -> ());
  !delivered
