(* Fleet telemetry emitter: one per live node.

   Each node owns an enabled {!Csync_obs.Registry} and a UDP socket to
   the collector.  Exchanged-timestamp samples (from the node's receive
   tap) accumulate in bounded per-peer buffers; every [period] seconds
   (checked on the sampling path — no extra thread) the emitter encodes
   one self-contained btrace segment — magic, the node manifest (params
   with the gamma/kappa envelopes baked in), a registry snapshot, and
   the buffered offset series — and ships it as {!Codec} telemetry
   frames.

   Telemetry must never stall the sync loop, so every failure mode sheds
   load instead of blocking: the socket is non-blocking, a full buffer
   or refused send drops the rest of the segment (counted in [drops]),
   and per-peer sample buffers are capped (overflow counted too).  Each
   segment restarting the btrace stream from its magic makes loss
   recovery trivial for the collector: a lost frame costs at most one
   segment, and decoding resynchronizes at the next one. *)

module Registry = Csync_obs.Registry
module Record = Csync_obs.Record
module Btrace = Csync_obs.Btrace
module Json = Csync_obs.Json

(* Per-peer sample cap between flushes. *)
let max_samples = 512

type t = {
  src : int;
  sock : Unix.file_descr;
  dest : Unix.sockaddr;
  reg : Registry.t;
  manifest : Json.t;
  period_ns : int;
  on_flush : (Registry.t -> unit) option;
  mutable seq : int;
  mutable frames : int;  (* frames handed to the kernel *)
  mutable drops : int;  (* frames and samples shed *)
  mutable flushes : int;
  mutable last_flush_ns : int;
  xs : float list array;  (* per-peer sample timestamps (mono ns), rev *)
  ys : float list array;  (* per-peer offset samples (seconds), rev *)
  counts : int array;
  mutable closed : bool;
}

let create ~src ~peers ~port ?(period = 0.25) ?on_flush ~manifest () =
  if src < 0 then invalid_arg "Emitter.create: negative src";
  if peers <= 0 then invalid_arg "Emitter.create: peers must be positive";
  if period <= 0. then invalid_arg "Emitter.create: nonpositive period";
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock sock;
  {
    src;
    sock;
    dest = Unix.ADDR_INET (Unix.inet_addr_loopback, port);
    reg = Registry.create ();
    manifest;
    period_ns = int_of_float (period *. 1e9);
    on_flush;
    seq = 0;
    frames = 0;
    drops = 0;
    flushes = 0;
    last_flush_ns = Registry.now_ns ();
    xs = Array.make peers [];
    ys = Array.make peers [];
    counts = Array.make peers 0;
    closed = false;
  }

let registry t = t.reg

let drops t = t.drops

let frames_sent t = t.frames

(* Best-effort non-blocking send; [false] sheds the frame. *)
let send_frame t frame =
  match Unix.sendto t.sock frame 0 (Bytes.length frame) [] t.dest with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNREFUSED | Unix.ENOBUFS
          | Unix.EHOSTUNREACH | Unix.ENETUNREACH ),
          _,
          _ ) ->
    false

let ship t ~ts_ns stream =
  let len = String.length stream in
  let nchunks = (len + Codec.max_tel_payload - 1) / Codec.max_tel_payload in
  let rec go i =
    if i < nchunks then begin
      let off = i * Codec.max_tel_payload in
      let chunk = String.sub stream off (min Codec.max_tel_payload (len - off)) in
      let frame = Codec.encode_tel ~src:t.src ~seq:t.seq ~ts_ns chunk in
      if send_frame t frame then begin
        t.seq <- t.seq + 1;
        t.frames <- t.frames + 1;
        go (i + 1)
      end
      else
        (* Shed the rest of the segment; the collector resyncs at the
           next segment's magic. *)
        t.drops <- t.drops + (nchunks - i)
    end
  in
  if len > 0 then go 0

let flush t =
  if not t.closed then begin
    let ts_ns = Registry.now_ns () in
    t.last_flush_ns <- ts_ns;
    t.flushes <- t.flushes + 1;
    (match t.on_flush with None -> () | Some f -> f t.reg);
    let buf = Buffer.create 1024 in
    let w = Btrace.writer_fn (Buffer.add_string buf) in
    Btrace.write w (Record.Manifest t.manifest);
    List.iter (Btrace.write w) (Registry.records t.reg);
    Btrace.write w (Record.Counter ("emit.drops", t.drops));
    Btrace.write w (Record.Counter ("emit.frames", t.frames));
    Array.iteri
      (fun peer xs ->
        if xs <> [] then begin
          let xs = Array.of_list (List.rev xs) in
          let ys = Array.of_list (List.rev t.ys.(peer)) in
          t.xs.(peer) <- [];
          t.ys.(peer) <- [];
          t.counts.(peer) <- 0;
          Btrace.write w
            (Record.Series (Printf.sprintf "fleet.offset.p%d" peer, xs, ys))
        end)
      t.xs;
    Btrace.close_writer w;
    ship t ~ts_ns (Buffer.contents buf)
  end

let sample t ~peer ~own ~value =
  if not t.closed then begin
    let ts = Registry.now_ns () in
    if peer >= 0 && peer < Array.length t.xs then begin
      if t.counts.(peer) >= max_samples then t.drops <- t.drops + 1
      else begin
        t.xs.(peer) <- float_of_int ts :: t.xs.(peer);
        t.ys.(peer) <- (own -. value) :: t.ys.(peer);
        t.counts.(peer) <- t.counts.(peer) + 1
      end
    end;
    if ts - t.last_flush_ns >= t.period_ns then flush t
  end

let close t =
  if not t.closed then begin
    flush t;
    t.closed <- true;
    Unix.close t.sock
  end
