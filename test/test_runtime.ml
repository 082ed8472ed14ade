(* Tests for the live runtime's hardening: the validated wire codec, and
   loopback runs where a hostile socket sprays garbage datagrams at a node
   mid-synchronization, where only part of the cluster is deployed, and
   where a chaos plan cuts live links. *)

module Codec = Csync_runtime.Codec
module Live = Csync_runtime.Live
module Wall_clock = Csync_runtime.Wall_clock
module Emitter = Csync_runtime.Emitter
module Collector = Csync_runtime.Collector
module Plan = Csync_chaos.Plan
module Params = Csync_core.Params
module Collect = Csync_obs.Collect
module Report = Csync_obs.Report
module Record = Csync_obs.Record
module Json = Csync_obs.Json
open Helpers

let t name f = Alcotest.test_case name `Quick f

let live_params ~n ~f =
  Params.auto ~n ~f ~rho:1e-4 ~delta:0.025 ~eps:0.0249 ~big_p:0.45 ()
  |> Result.get_ok

let codec_tests =
  [
    t "roundtrip" (fun () ->
        let frame = Codec.encode ~src:3 ~value:1.25 in
        check_int "size" Codec.frame_size (Bytes.length frame);
        match Codec.decode ~max_src:6 frame ~len:Codec.frame_size with
        | Ok (src, v) ->
          check_int "src" 3 src;
          check_float "value" 1.25 v
        | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e);
    t "roundtrip survives extreme values" (fun () ->
        List.iter
          (fun v ->
            match
              Codec.decode ~max_src:0 (Codec.encode ~src:0 ~value:v)
                ~len:Codec.frame_size
            with
            | Ok (_, v') -> check_float "value" v v'
            | Error e -> Alcotest.failf "decode %g: %a" v Codec.pp_error e)
          [ 0.; -0.; 1e-308; -1e308; Float.max_float; 4.9e-324 ]);
    t "truncated and oversized are length errors" (fun () ->
        let frame = Codec.encode ~src:0 ~value:1. in
        check_true "truncated"
          (Codec.decode ~max_src:6 frame ~len:10 = Error (Codec.Truncated 10));
        check_true "empty"
          (Codec.decode ~max_src:6 frame ~len:0 = Error (Codec.Truncated 0));
        let big = Bytes.extend frame 0 8 in
        check_true "oversized"
          (Codec.decode ~max_src:6 big ~len:(Bytes.length big)
           = Error (Codec.Oversized (Codec.frame_size + 8))));
    t "wrong magic" (fun () ->
        let frame = Codec.encode ~src:0 ~value:1. in
        Bytes.set frame 0 'X';
        check_true "bad magic"
          (Codec.decode ~max_src:6 frame ~len:Codec.frame_size
           = Error Codec.Bad_magic));
    t "any single corrupted byte is caught by the checksum" (fun () ->
        (* Flip one byte everywhere past the magic: value, src, and checksum
           corruption all surface as Bad_checksum, never a bogus Ok. *)
        for i = 4 to Codec.frame_size - 1 do
          let frame = Codec.encode ~src:2 ~value:42.5 in
          Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 0x40));
          check_true
            (Printf.sprintf "byte %d" i)
            (Codec.decode ~max_src:6 frame ~len:Codec.frame_size
             = Error Codec.Bad_checksum)
        done);
    t "well-formed frame from an out-of-range sender" (fun () ->
        let frame = Codec.encode ~src:50 ~value:1. in
        check_true "bad src"
          (Codec.decode ~max_src:6 frame ~len:Codec.frame_size
           = Error (Codec.Bad_src 50)));
    t "non-finite clock values are rejected" (fun () ->
        List.iter
          (fun v ->
            check_true "bad value"
              (Codec.decode ~max_src:6 (Codec.encode ~src:1 ~value:v)
                 ~len:Codec.frame_size
               = Error Codec.Bad_value))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    t "encode rejects negative pids" (fun () ->
        check_raises_invalid "src" (fun () ->
            ignore (Codec.encode ~src:(-1) ~value:1.)));
  ]

(* Spray hostile datagrams at [port] from a plain UDP socket: random bytes,
   truncated and oversized frames, wrong magic, corrupted payloads, and
   well-formed frames from an out-of-range sender. *)
let spray_garbage ~port ~duration =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let send b =
    try ignore (Unix.sendto sock b 0 (Bytes.length b) [] addr)
    with Unix.Unix_error _ -> ()
  in
  let deadline = Unix.gettimeofday () +. duration in
  let i = ref 0 in
  let count = ref 0 in
  while Unix.gettimeofday () < deadline do
    incr i;
    let payloads =
      [
        Bytes.make 10 (Char.chr (!i land 0xff));
        Bytes.make 200 'A';
        Bytes.make Codec.frame_size (Char.chr (!i * 37 land 0xff));
        (let b = Codec.encode ~src:0 ~value:(float_of_int !i) in
         Bytes.set b 12 '\xff';
         b);
        Codec.encode ~src:99 ~value:1.;
        Codec.encode ~src:0 ~value:Float.nan;
      ]
    in
    List.iter send payloads;
    count := !count + List.length payloads;
    Thread.delay 0.005
  done;
  Unix.close sock;
  !count

let live_tests =
  [
    Alcotest.test_case "nodes synchronize under a garbage barrage" `Slow
      (fun () ->
        let params = live_params ~n:4 ~f:1 in
        let base_port = 17_560 in
        (* Hammer node 0's port for the whole run. *)
        let sprayed = ref 0 in
        let sprayer =
          Thread.create
            (fun () -> sprayed := spray_garbage ~port:base_port ~duration:2.2)
            ()
        in
        let report =
          Live.run_maintenance ~base_port ~params ~duration:2.0 ()
        in
        Thread.join sprayer;
        let node0 =
          List.find (fun n -> n.Live.pid = 0) report.Live.nodes
        in
        check_true "garbage was sent" (!sprayed > 100);
        check_true "garbage was counted" (node0.Live.malformed > 50);
        check_true "none of it was delivered"
          (List.for_all (fun n -> n.Live.rounds >= 2) report.Live.nodes);
        check_true "still within gamma"
          (report.Live.final_skew <= Params.gamma params));
    Alcotest.test_case "partial deployment degrades gracefully" `Slow
      (fun () ->
        (* Only 3 of 5 configured nodes exist; hearing fewer than n - f
           peers, each node averages over whoever it actually hears
           instead of over the missing majority's stale entries. *)
        let params = live_params ~n:5 ~f:1 in
        let report =
          Live.run_maintenance ~base_port:17_580 ~params ~active:[ 0; 1; 2 ]
            ~duration:2.0 ()
        in
        check_int "three launched" 3 (List.length report.Live.nodes);
        check_true "rounds happened"
          (List.for_all (fun n -> n.Live.rounds >= 2) report.Live.nodes);
        check_true "skew reduced"
          (report.Live.final_skew < report.Live.initial_skew /. 3.));
    Alcotest.test_case "a chaos plan cuts live links" `Slow (fun () ->
        (* Isolate node 3 for the first half of the run: the rest must
           stay within gamma (the reduction discards node 3's stale
           entry), and node 3 must still complete rounds on its own. *)
        let params = live_params ~n:4 ~f:1 in
        let plan =
          [
            Plan.Partition
              {
                left = [ 3 ];
                right = [ 0; 1; 2 ];
                over = Plan.interval ~from_time:0. ~until_time:1.0;
              };
          ]
        in
        let report =
          Live.run_maintenance ~base_port:17_600 ~params ~plan ~duration:2.0 ()
        in
        check_true "rounds happened"
          (List.for_all (fun n -> n.Live.rounds >= 2) report.Live.nodes);
        let majority =
          List.filter (fun n -> n.Live.pid <> 3) report.Live.nodes
        in
        check_true "majority heard each other"
          (List.for_all (fun n -> n.Live.received > 0) majority));
    Alcotest.test_case "a state corruption is applied and absorbed live"
      `Slow (fun () ->
        (* A mild corruption (correction push only, no scrambled buffers)
           lands on node 1 early in the run; the Stabilize wrapper applies
           it at the scheduled instant and one round of fault-tolerant
           averaging absorbs it, so the pack ends within gamma. *)
        let params = live_params ~n:4 ~f:1 in
        let plan =
          [ Plan.State_corrupt { pid = 1; at = 0.9; severity = 0.3 } ]
        in
        let report =
          Live.run_maintenance ~base_port:17_620 ~params ~plan ~duration:2.5 ()
        in
        let node1 = List.find (fun n -> n.Live.pid = 1) report.Live.nodes in
        check_int "corruption applied" 1 node1.Live.corruptions;
        check_true "rounds happened"
          (List.for_all (fun n -> n.Live.rounds >= 2) report.Live.nodes);
        check_true "back within gamma"
          (report.Live.final_skew <= Params.gamma params));
  ]

(* ---------- fleet telemetry: clock source, tel frames, streaming ---------- *)

let tel_tests =
  [
    t "telemetry frame roundtrip" (fun () ->
        let payload = String.init 300 (fun i -> Char.chr (i land 0xff)) in
        let b = Codec.encode_tel ~src:4 ~seq:17 ~ts_ns:123_456_789_012 payload in
        check_int "size" (Codec.tel_header_size + 300) (Bytes.length b);
        match Codec.decode_tel ~max_src:6 b ~len:(Bytes.length b) with
        | Ok (src, seq, ts_ns, p) ->
          check_int "src" 4 src;
          check_int "seq" 17 seq;
          check_true "ts_ns" (ts_ns = 123_456_789_012);
          check_true "payload" (p = payload)
        | Error e -> Alcotest.failf "decode_tel: %a" Codec.pp_error e);
    t "empty telemetry payload roundtrips" (fun () ->
        let b = Codec.encode_tel ~src:0 ~seq:0 ~ts_ns:0 "" in
        check_true "ok"
          (Codec.decode_tel ~max_src:6 b ~len:(Bytes.length b)
           = Ok (0, 0, 0, "")));
    t "any corrupted telemetry byte is caught by the checksum" (fun () ->
        let b0 = Codec.encode_tel ~src:1 ~seq:2 ~ts_ns:3 "hello" in
        for i = 4 to Bytes.length b0 - 1 do
          let b = Bytes.copy b0 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          check_true
            (Printf.sprintf "byte %d" i)
            (Codec.decode_tel ~max_src:6 b ~len:(Bytes.length b)
             = Error Codec.Bad_checksum)
        done);
    t "truncated telemetry header is a length error" (fun () ->
        let b = Codec.encode_tel ~src:1 ~seq:2 ~ts_ns:3 "hello" in
        check_true "truncated"
          (Codec.decode_tel ~max_src:6 b ~len:10 = Error (Codec.Truncated 10)));
    t "telemetry with the data-plane magic is rejected" (fun () ->
        (* The two frame types share a port namespace on loopback; the
           distinct magic keeps a stray clock frame out of the collector. *)
        let b = Codec.encode ~src:1 ~value:1.0 in
        match Codec.decode_tel ~max_src:6 b ~len:(Bytes.length b) with
        | Error (Codec.Bad_magic | Codec.Truncated _) -> ()
        | r ->
          Alcotest.failf "expected rejection, got %s"
            (match r with Ok _ -> "Ok" | Error _ -> "other error"));
    t "well-formed telemetry from an out-of-range sender" (fun () ->
        let b = Codec.encode_tel ~src:50 ~seq:0 ~ts_ns:1 "x" in
        check_true "bad src"
          (Codec.decode_tel ~max_src:6 b ~len:(Bytes.length b)
           = Error (Codec.Bad_src 50)));
    t "telemetry encode rejects bad fields" (fun () ->
        check_raises_invalid "src" (fun () ->
            ignore (Codec.encode_tel ~src:(-1) ~seq:0 ~ts_ns:0 ""));
        check_raises_invalid "seq" (fun () ->
            ignore (Codec.encode_tel ~src:0 ~seq:(-1) ~ts_ns:0 ""));
        check_raises_invalid "ts_ns" (fun () ->
            ignore (Codec.encode_tel ~src:0 ~seq:0 ~ts_ns:(-1) ""));
        check_raises_invalid "oversized payload" (fun () ->
            ignore
              (Codec.encode_tel ~src:0 ~seq:0 ~ts_ns:0
                 (String.make (Codec.max_tel_payload + 1) 'x'))));
    t "emitter streams segments into a loopback collector" (fun () ->
        let col = Collector.create () in
        let manifest =
          Json.Obj
            [
              ("record", Json.Str "manifest");
              ("params", Json.Obj [ ("gamma", Json.Num 0.1) ]);
            ]
        in
        let mk_emitter () =
          (* A long period so flushes happen only when the test asks. *)
          Emitter.create ~src:2 ~peers:3 ~port:(Collector.port col)
            ~period:60. ~manifest ()
        in
        let em = mk_emitter () in
        for i = 1 to 5 do
          let own = float_of_int i in
          Emitter.sample em ~peer:0 ~own ~value:(own -. 0.01)
        done;
        Emitter.flush em;
        Collector.poll col ~timeout:0.3;
        let s = List.hd (Collect.stats (Collector.collect col)) in
        check_int "stream src" 2 s.Collect.src;
        check_true "frames arrived" (s.Collect.frames >= 1);
        check_true "records decoded" (s.Collect.records > 0);
        check_int "no gaps on loopback" 0 s.Collect.gaps;
        check_int "emitter dropped nothing" 0 (Emitter.drops em);
        check_int "nothing rejected" 0 (Collector.rejected col);
        let m = Collect.merged (Collector.collect col) in
        check_true "offset samples shipped"
          (List.exists
             (function
               | Record.Series (name, _, ys) ->
                 name = "p2/fleet.offset.p0" && Array.length ys = 5
               | _ -> false)
             m);
        (* Reconnect: a fresh emitter for the same node restarts its
           stream at seq 0, which the collector must count as a reset,
           not a gap. *)
        Emitter.close em;
        let em2 = mk_emitter () in
        Emitter.sample em2 ~peer:1 ~own:1.0 ~value:0.5;
        Emitter.flush em2;
        Collector.poll col ~timeout:0.3;
        let s = List.hd (Collect.stats (Collector.collect col)) in
        check_true "reconnect counted as a reset" (s.Collect.resets >= 1);
        check_int "still no gaps" 0 s.Collect.gaps;
        Emitter.close em2;
        Collector.close col);
  ]

let fleet_tests =
  [
    Alcotest.test_case "a telemetry fleet streams, restarts, and reports"
      `Slow (fun () ->
        (* End-to-end tentpole check: 5 live nodes stream telemetry to a
           collector while node 2 crashes and rejoins; the merged trace
           must yield measured pairwise skew within gamma, and the
           restarted node must reappear as a stream reset. *)
        let params = live_params ~n:5 ~f:1 in
        let col = Collector.create () in
        let stop = Atomic.make false in
        let poller =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                Collector.poll col ~timeout:0.1
              done)
            ()
        in
        let report =
          Live.run_maintenance ~base_port:17_640 ~params
            ~telemetry_port:(Collector.port col) ~telemetry_period:0.15
            ~restart:(2, 1.8, 3.0) ~duration:5.0 ()
        in
        Atomic.set stop true;
        Thread.join poller;
        (* One last drain for frames sent during shutdown. *)
        Collector.poll col ~timeout:0.3;
        let stats = Collect.stats (Collector.collect col) in
        check_int "five streams" 5 (List.length stats);
        let s2 = List.find (fun s -> s.Collect.src = 2) stats in
        check_true "restarted node reappeared as a reset"
          (s2.Collect.resets >= 1);
        let r = Report.of_records (Collect.merged (Collector.collect col)) in
        let f = Report.fleet r in
        check_true "pairwise skew measured" (f.Report.fleet_pairs <> []);
        (match f.Report.fleet_gamma with
        | Some g ->
          check_true "measured skew within gamma" (f.Report.fleet_max <= g)
        | None -> Alcotest.fail "no gamma in the fleet manifest");
        check_true "true final skew within gamma"
          (report.Live.final_skew <= Params.gamma params);
        check_true "all nodes completed rounds"
          (List.for_all (fun n -> n.Live.rounds >= 2) report.Live.nodes);
        Collector.close col);
  ]

(* [Collector.serve] is the loop behind both [csync collect] and
   [csync fleet]. *)
let serve_tests =
  [
    t "serve loop stops on its flag with a final snapshot" (fun () ->
        let col = Collector.create () in
        let out = Filename.temp_file "csync-serve" ".btrace" in
        let stop = Atomic.make false in
        (* A long period: the only snapshot is the final one. *)
        let server =
          Thread.create
            (fun () -> Collector.serve col ~out ~snapshot_period:60. ~stop ())
            ()
        in
        let manifest = Json.Obj [ ("record", Json.Str "manifest") ] in
        let emitters =
          List.map
            (fun src ->
              Emitter.create ~src ~peers:2 ~port:(Collector.port col)
                ~period:60. ~manifest ())
            [ 0; 1 ]
        in
        List.iteri
          (fun src em ->
            Emitter.sample em ~peer:(1 - src) ~own:1.0 ~value:0.99;
            Emitter.flush em)
          emitters;
        Thread.delay 0.3;
        Atomic.set stop true;
        Thread.join server;
        List.iter Emitter.close emitters;
        Collector.close col;
        let report = Report.of_file out in
        Sys.remove out;
        match report with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Alcotest.(check (list int))
            "both nodes in the snapshot" [ 0; 1 ]
            (Report.fleet r).Report.fleet_nodes);
  ]

let suite = codec_tests @ tel_tests @ live_tests @ fleet_tests @ serve_tests
