module Automaton = Csync_process.Automaton

type filter = now:float -> peer:int -> [ `Deliver | `Drop | `Duplicate ]

type tap = peer:int -> value:float -> own:float -> unit

type t = {
  self : int;
  socket : Unix.file_descr;
  peer_addr : Unix.sockaddr array;
  clock : Wall_clock.t;
  handle : phys:float -> float Automaton.interrupt -> float Automaton.action list;
  corr : unit -> float;
  send_filter : filter option;
  recv_filter : filter option;
  tap : tap option;
  mutable timers : (float * float) list; (* (wall deadline, tag), sorted *)
  mutable sent : int;
  mutable received : int;
  mutable malformed : int;
  mutable send_errors : int;
  mutable recv_errors : int;
  last_heard : float array; (* wall time of last valid frame; nan = never *)
  buf : Bytes.t;
}

let localhost = Unix.inet_addr_loopback

let create (type s) ~self ~port ~peers ~clock
    ~(automaton : (s, float) Automaton.t) ?send_filter ?recv_filter ?tap () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (localhost, port));
  let max_pid = List.fold_left (fun acc (pid, _) -> max acc pid) 0 peers in
  let peer_addr = Array.make (max_pid + 1) (Unix.ADDR_INET (localhost, port)) in
  List.iter
    (fun (pid, p) -> peer_addr.(pid) <- Unix.ADDR_INET (localhost, p))
    peers;
  let state = ref automaton.Automaton.initial in
  let handle ~phys interrupt =
    let s, actions = automaton.Automaton.handle ~self ~phys interrupt !state in
    state := s;
    actions
  in
  let corr () = automaton.Automaton.corr !state in
  ( {
      self;
      socket;
      peer_addr;
      clock;
      handle;
      corr;
      send_filter;
      recv_filter;
      tap;
      timers = [];
      sent = 0;
      received = 0;
      malformed = 0;
      send_errors = 0;
      recv_errors = 0;
      last_heard = Array.make (max_pid + 1) Float.nan;
      (* One spare byte so a valid-sized read and an oversized datagram
         are distinguishable: recvfrom truncates silently at buffer size. *)
      buf = Bytes.create (Codec.frame_size + 1);
    },
    fun () -> !state )

(* Transient send failures are facts of life on a real network - a peer
   that is down answers with ICMP refusals, buffers fill - and must not
   kill the node.  EINTR is retried; delivery-style failures are counted
   and the message is forfeit (UDP promises nothing anyway); anything
   else is a real bug and propagates. *)
let sendto_resilient t payload dst =
  let rec attempt tries =
    match
      Unix.sendto t.socket payload 0 (Bytes.length payload) [] t.peer_addr.(dst)
    with
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) when tries < 4 ->
      attempt (tries + 1)
    | exception
        Unix.Unix_error
          ( ( Unix.ECONNREFUSED | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
            | Unix.ENOBUFS | Unix.EHOSTUNREACH | Unix.ENETUNREACH ),
            _,
            _ ) ->
      false
  in
  if not (attempt 0) then t.send_errors <- t.send_errors + 1

let send t ~dst value =
  let payload = Codec.encode ~src:t.self ~value in
  let verdict =
    match t.send_filter with
    | None -> `Deliver
    | Some f -> f ~now:(Wall_clock.host_now ()) ~peer:dst
  in
  match verdict with
  | `Drop -> ()
  | `Deliver ->
    sendto_resilient t payload dst;
    t.sent <- t.sent + 1
  | `Duplicate ->
    sendto_resilient t payload dst;
    sendto_resilient t payload dst;
    t.sent <- t.sent + 2

let add_timer t ~wall ~tag =
  if wall > Wall_clock.host_now () then
    t.timers <-
      List.sort (fun (a, _) (b, _) -> Float.compare a b) ((wall, tag) :: t.timers)

let apply_action t action =
  match action with
  | Automaton.Send (dst, v) -> send t ~dst v
  | Automaton.Broadcast v ->
    Array.iteri (fun dst _ -> send t ~dst v) t.peer_addr
  | Automaton.Set_timer_logical v ->
    let phys_target = v -. t.corr () in
    add_timer t ~wall:(Wall_clock.wall_of t.clock phys_target) ~tag:v
  | Automaton.Set_timer_phys v ->
    add_timer t ~wall:(Wall_clock.wall_of t.clock v) ~tag:v

let deliver t interrupt =
  let phys = Wall_clock.now t.clock in
  List.iter (apply_action t) (t.handle ~phys interrupt)

(* Every due timer fires, not just the head: a slow iteration (long
   select, burst of datagrams) can leave several deadlines in the past,
   and firing one per loop turn starves the rest behind fresh traffic. *)
let rec fire_due_timers t =
  let now = Wall_clock.host_now () in
  match t.timers with
  | (wall, tag) :: rest when wall <= now ->
    t.timers <- rest;
    deliver t (Automaton.Timer tag);
    fire_due_timers t
  | _ -> ()

let receive_one t =
  match Unix.recvfrom t.socket t.buf 0 (Bytes.length t.buf) [] with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNREFUSED), _, _)
    ->
    t.recv_errors <- t.recv_errors + 1
  | len, _ -> (
    match Codec.decode ~max_src:(Array.length t.peer_addr - 1) t.buf ~len with
    | Error _ -> t.malformed <- t.malformed + 1
    | Ok (src, value) ->
      let now = Wall_clock.host_now () in
      t.last_heard.(src) <- now;
      let verdict =
        match t.recv_filter with
        | None -> `Deliver
        | Some f -> f ~now ~peer:src
      in
      let deliver_once () =
        t.received <- t.received + 1;
        deliver t (Automaton.Message (src, value))
      in
      match verdict with
      | `Drop -> ()
      | (`Deliver | `Duplicate) as v ->
        (* One tap call per datagram accepted by the filter - the
           telemetry sample is the exchanged-timestamp observation, not
           the delivery count. *)
        (match t.tap with
         | None -> ()
         | Some f -> f ~peer:src ~value ~own:(Wall_clock.now t.clock));
        deliver_once ();
        if v = `Duplicate then deliver_once ())

let run t ~start_at ~until =
  let started = ref false in
  let rec loop () =
    let now = Wall_clock.host_now () in
    if now >= until then ()
    else begin
      if (not !started) && now >= start_at then begin
        started := true;
        deliver t Automaton.Start
      end;
      fire_due_timers t;
      (* Wait for a datagram until the next deadline. *)
      let next_deadline =
        List.fold_left
          (fun acc (w, _) -> Float.min acc w)
          (if !started then until else start_at)
          t.timers
      in
      let timeout = Float.max 0.0005 (Float.min 0.02 (next_deadline -. now)) in
      (match Unix.select [ t.socket ] [] [] timeout with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | [], _, _ -> ()
       | _ :: _, _, _ -> receive_one t);
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> Unix.close t.socket) loop

let messages_sent t = t.sent

let messages_received t = t.received

let malformed t = t.malformed

let send_errors t = t.send_errors

let recv_errors t = t.recv_errors

let last_heard t ~peer =
  let v = t.last_heard.(peer) in
  if Float.is_nan v then None else Some v

let live_peers t ~now ~within =
  Array.to_list t.last_heard
  |> List.mapi (fun pid heard -> (pid, heard))
  |> List.filter_map (fun (pid, heard) ->
         if (not (Float.is_nan heard)) && now -. heard <= within then Some pid
         else None)
