(* The collector's socket loop: one UDP socket fan-in for the whole
   fleet.  Datagrams are validated by {!Codec.decode_tel} (anything else
   that lands on the port is counted in [rejected] and dropped) and fed
   to {!Csync_obs.Collect}, which owns stream reassembly, per-node
   resync, and the canonical merge.  Snapshots are written atomically
   (tmp + rename) so [csync report --fleet --watch] can re-read the
   merged trace while the collector keeps rewriting it. *)

module Collect = Csync_obs.Collect

type t = {
  sock : Unix.file_descr;
  collect : Collect.t;
  max_src : int;
  buf : Bytes.t;
  mutable rejected : int;
}

let create ?(port = 0) ?(max_src = 4095) () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (* A whole fleet flushing at once is bursty; ask for queue headroom
     (best effort - the kernel may clamp). *)
  (try Unix.setsockopt_int sock Unix.SO_RCVBUF (4 * 1024 * 1024)
   with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    sock;
    collect = Collect.create ();
    max_src;
    (* One spare byte so an oversized datagram is detectable: recvfrom
       truncates silently at buffer size. *)
    buf = Bytes.create (Codec.tel_header_size + Codec.max_tel_payload + 1);
    rejected = 0;
  }

let port t =
  match Unix.getsockname t.sock with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> 0

let collect t = t.collect

let rejected t = t.rejected

let receive_one t =
  match Unix.recvfrom t.sock t.buf 0 (Bytes.length t.buf) [] with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNREFUSED), _, _)
    ->
    ()
  | len, _ -> (
    match Codec.decode_tel ~max_src:t.max_src t.buf ~len with
    | Error _ -> t.rejected <- t.rejected + 1
    | Ok (src, seq, ts_ns, payload) ->
      Collect.frame t.collect ~src ~seq ~ts_ns payload)

(* Deadlines run on the monotonic clock, so a host clock step can neither
   stretch nor cut a collection. *)
let now () = float_of_int (Csync_obs.Registry.now_ns ()) *. 1e-9

let poll t ~timeout =
  let deadline = now () +. timeout in
  let rec loop () =
    let remaining = deadline -. now () in
    if remaining > 0. then begin
      match Unix.select [ t.sock ] [] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> ()
      | _ :: _, _, _ ->
        receive_one t;
        loop ()
    end
  in
  loop ()

let write_snapshot t path =
  let tmp = path ^ ".tmp" in
  Collect.write_merged t.collect tmp;
  Sys.rename tmp path

let close t = Unix.close t.sock

(* Polls are capped at [stop_latency] so a caller's [stop] flag is seen
   promptly even while the fleet is quiet. *)
let stop_latency = 0.1

let serve t ~out ?(snapshot_period = 1.0) ?duration ?stop () =
  let until =
    match duration with Some d -> now () +. d | None -> Float.infinity
  in
  let stopped () = match stop with Some s -> Atomic.get s | None -> false in
  let next_snap = ref (now () +. snapshot_period) in
  let rec loop () =
    let now_s = now () in
    let left = until -. now_s in
    if left > 0. && not (stopped ()) then begin
      poll t
        ~timeout:
          (Float.max 0.01
             (Float.min stop_latency (Float.min left (!next_snap -. now_s))));
      if now () >= !next_snap then begin
        write_snapshot t out;
        next_snap := !next_snap +. snapshot_period
      end;
      loop ()
    end
  in
  loop ();
  write_snapshot t out

let run ?port:p ?max_src ~out ~duration ?snapshot_period () =
  let t = create ?port:p ?max_src () in
  Fun.protect ~finally:(fun () -> close t) @@ fun () ->
  serve t ~out ?snapshot_period ~duration ();
  (Collect.stats t.collect, t.rejected)
