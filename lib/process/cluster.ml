module Engine = Csync_sim.Engine
module Hardware_clock = Csync_clock.Hardware_clock
module Logical_clock = Csync_clock.Logical_clock
module Message_buffer = Csync_net.Message_buffer
module Mon = Csync_obs.Monitor

type 'm proc = Proc : ('s, 'm) Automaton.t * 's ref -> 'm proc

let make_proc auto =
  let cell = ref auto.Automaton.initial in
  (Proc (auto, cell), fun () -> !cell)

type 'm t = {
  clocks : Hardware_clock.t array;
  buffer : 'm Message_buffer.t;
  engine : 'm Message_buffer.delivery Engine.t;
  procs : 'm proc array;
  mon : Mon.t;
}

(* The wheel's bucket width comes from the delay model: deliveries spread
   over the [delta - eps, delta + eps] jitter window, so eps / 2 resolves it
   into a few buckets; a jitter-free model falls back to a fraction of the
   base delay itself, and a delay-free one to the queue's default. *)
let wheel_width delay =
  let eps = Csync_net.Delay.eps delay in
  let delta = Csync_net.Delay.delta delay in
  if eps > 0. then Some (eps /. 2.)
  else if delta > 0. then Some (delta /. 8.)
  else None

let create ~clocks ?graph ~delay ?collision ?(exchanges = 1) ~procs () =
  let n = Array.length procs in
  if Array.length clocks <> n then
    invalid_arg "Cluster.create: clocks and procs length mismatch";
  if n = 0 then invalid_arg "Cluster.create: empty cluster";
  (* Peak queue depth is one exchange's worth of traffic in flight: the
     broadcast edges (n^2 on the full mesh, self + out-edges on a sparse
     graph) plus a START and a TIMER per process. *)
  let bcast_total =
    match graph with
    | None -> n * n
    | Some g -> n + Csync_topo.Graph.edges g
  in
  let expected = if exchanges <= 0 then 2 * n else bcast_total + (2 * n) in
  let engine = Engine.create ?width:(wheel_width delay) ~expected () in
  let buffer =
    Message_buffer.create ~n ?graph ~delay ?collision ~engine ()
  in
  { clocks; buffer; engine; procs; mon = Mon.installed () }

let n t = Array.length t.procs

let now t = Engine.now t.engine

let check_pid t pid name =
  if pid < 0 || pid >= n t then invalid_arg ("Cluster." ^ name ^ ": pid out of range")

let schedule_start t ~pid ~time =
  check_pid t pid "schedule_start";
  Message_buffer.schedule_start t.buffer ~dst:pid ~time

let schedule_starts_at_logical t ~t0 ~corrs =
  if Array.length corrs <> n t then
    invalid_arg "Cluster.schedule_starts_at_logical: corrs length mismatch";
  Array.iteri
    (fun pid corr ->
      let time = Logical_clock.real_time_of_local t.clocks.(pid) ~corr t0 in
      schedule_start t ~pid ~time)
    corrs

let corr t pid =
  check_pid t pid "corr";
  let (Proc (auto, state)) = t.procs.(pid) in
  auto.Automaton.corr !state

let phys_time t pid =
  check_pid t pid "phys_time";
  Hardware_clock.time t.clocks.(pid) (now t)

let local_time t pid = phys_time t pid +. corr t pid

let clock t pid =
  check_pid t pid "clock";
  t.clocks.(pid)

let apply_action t ~self action =
  match action with
  | Automaton.Send (dst, m) -> Message_buffer.send t.buffer ~src:self ~dst m
  | Automaton.Broadcast m -> Message_buffer.broadcast t.buffer ~src:self m
  | Automaton.Set_timer_logical v ->
    let phys_target = Logical_clock.timer_phys_target ~corr:(corr t self) v in
    let at_real = Hardware_clock.inverse t.clocks.(self) phys_target in
    ignore (Message_buffer.set_timer t.buffer ~dst:self ~at_real ~phys_value:v)
  | Automaton.Set_timer_phys v ->
    let at_real = Hardware_clock.inverse t.clocks.(self) v in
    ignore (Message_buffer.set_timer t.buffer ~dst:self ~at_real ~phys_value:v)

let handle_delivery t time (delivery : 'm Message_buffer.delivery) =
  let dst = delivery.dst in
  if Message_buffer.admit t.buffer delivery ~now:time then begin
    let interrupt =
      match delivery.body with
      | Message_buffer.Start -> Automaton.Start
      | Message_buffer.Timer tag -> Automaton.Timer tag
      | Message_buffer.Msg m -> Automaton.Message (delivery.src, m)
    in
    let prov = delivery.prov in
    (* All fields are captured in [interrupt]/[prov]; recycle the record
       before running the automaton so the sends it triggers reuse it. *)
    Message_buffer.release t.buffer delivery;
    (* Publish the delivery's provenance id on the monitor so the
       receiving automaton's instrumentation (Maintenance's ARR shadow)
       can attribute the interrupt to the exact message copy. *)
    if Mon.enabled t.mon then Mon.Prov.set_current t.mon prov;
    let (Proc (auto, state)) = t.procs.(dst) in
    let phys = Hardware_clock.time t.clocks.(dst) time in
    let new_state, actions = auto.Automaton.handle ~self:dst ~phys interrupt !state in
    state := new_state;
    (* Direct recursion: no per-delivery closures (this runs once per
       simulated event, the engine's innermost loop). *)
    let rec apply = function
      | [] -> ()
      | action :: rest ->
        apply_action t ~self:dst action;
        apply rest
    in
    apply actions
  end
  else
    (* Collision drop: the record is dead on arrival. *)
    Message_buffer.release t.buffer delivery

let run_until t until =
  Engine.run_until t.engine ~until ~handler:(fun time delivery ->
      handle_delivery t time delivery)

let messages_sent t = Message_buffer.sent_count t.buffer

let messages_dropped t = Message_buffer.dropped_count t.buffer

let buffer t = t.buffer
