(* The million-process simulation core: the struct-of-arrays sweep against
   its multiset reference, the SoA cluster model's determinism, and the
   sharded [Scale] round's worker-count identities. *)

module Sweep = Csync_core.Sweep
module Soa = Csync_process.Soa
module Scale = Csync_harness.Scale
module Multiset = Csync_multiset
module Registry = Csync_harness.Registry
module Mon = Csync_obs.Monitor

let t name f = Alcotest.test_case name `Quick f

let check_true msg b = Alcotest.(check bool) msg true b

let check_int msg a b = Alcotest.(check int) msg a b

let check_float msg a b = Alcotest.(check (float 1e-12)) msg a b

let qcheck = QCheck_alcotest.to_alcotest

(* Row values that stress the order: duplicates, both zeros and both
   infinities alongside ordinary finite floats. *)
let gen_row =
  QCheck.Gen.(
    list_size (1 -- 12)
      (frequency
         [
           (3, oneofl [ 0.; -0.; 1.; -1.; 2.5; infinity; neg_infinity ]);
           (2, float_range (-100.) 100.);
         ]))

let print_row row =
  Printf.sprintf "[%s]" (String.concat "; " (List.map (Printf.sprintf "%h") row))

(* The shape of the benchmark's scale workload: an n = 10^4 degree-8
   expander in gradient mode with one crash and one pull fault. *)
let expander_model () =
  let graph = Csync_topo.Graph.expander ~n:10_000 ~degree:8 ~seed:1 in
  let m =
    Soa.create ~graph ~f:2 ~seed:1 ~dispersion:0.002
      ~mode:(Soa.Gradient_avg 0.5) ~n:10_000 ()
  in
  Soa.crash m 17;
  Soa.set_pull m 42 0.3;
  m

let sweep_tests =
  [
    qcheck
      (QCheck.Test.make ~count:1000
         ~name:"sweep midpoint matches the multiset reference"
         QCheck.(pair (int_bound 3) (make ~print:print_row gen_row))
         (fun (f, row) ->
           let count = List.length row in
           let a = Array.of_list row in
           let slab = Array.copy a in
           let got = Sweep.mid_row slab ~off:0 ~count ~f in
           let g = Sweep.g_of ~f ~count in
           let want = Multiset.mid_reduced ~f:g (Multiset.of_array a) in
           (* [Float.equal] identifies [-0.] with [0.] and nan with nan:
              the reference's unstable sort may order the two zeros (and
              so sign a zero midpoint) differently. *)
           Float.equal got want));
    qcheck
      (QCheck.Test.make ~count:1000
         ~name:"float sort_row orders rows like Float.compare"
         (QCheck.make ~print:print_row gen_row)
         (fun row ->
           let a = Array.of_list row in
           let len = Array.length a in
           (* Embed the row between sentinels to check the sort stays
              inside [off, off + len). *)
           let slab = Array.concat [ [| nan |]; a; [| nan |] ] in
           Sweep.sort_row slab ~off:1 ~len;
           let got = Array.sub slab 1 len in
           let sorted = Array.copy a in
           Array.sort Float.compare sorted;
           (* Insertion sort is stable, so it must also match a stable
              sort bit for bit, [-0.]/[0.] ties included. *)
           let stable = Array.copy a in
           Array.stable_sort Float.compare stable;
           Float.is_nan slab.(0)
           && Float.is_nan slab.(len + 1)
           && Array.for_all2 Float.equal got sorted
           && Array.for_all2
                (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                got stable));
    t "sweep allocates nothing" (fun () ->
        let m = expander_model () in
        let sh = Soa.run_shard m ~lo:0 ~hi:(Soa.n m) in
        let unsorted = Array.copy sh.Soa.slab in
        let slab = sh.Soa.slab and counts = sh.Soa.counts in
        let out = Array.make (Soa.n m) Float.nan in
        let sweep () =
          Sweep.sweep ~slab ~width:(Soa.width m) ~counts ~f:(Soa.f m) ~out
        in
        sweep ();
        Array.blit unsorted 0 slab 0 (Array.length slab);
        let words = Helpers.allocated_words sweep in
        check_true "the measured pass sorted something" (unsorted <> slab);
        Alcotest.(check (float 0.)) "words" 0. words);
    t "sweep handles offsets, empty rows and slack width" (fun () ->
        (* width 4, three rows: full, partial, empty. *)
        let slab = [| 3.; 1.; 2.; 9.; 5.; 4.; 0.; 0.; 0.; 0.; 0.; 0. |] in
        let counts = [| 4; 2; 0 |] in
        let out = Array.make 3 0. in
        Sweep.sweep ~slab ~width:4 ~counts ~f:1 ~out;
        (* Row 0 sorted: 1 2 3 9, g = min 1 1 = 1 -> (2 + 3) / 2. *)
        check_float "full row" 2.5 out.(0);
        (* Row 1: count 2, g = min 1 0 = 0 -> (4 + 5) / 2. *)
        check_float "partial row" 4.5 out.(1);
        check_true "empty row is nan" (Float.is_nan out.(2));
        (* The sort happened in place and stayed inside the row. *)
        check_float "row 0 sorted" 1. slab.(0);
        check_float "row 1 untouched tail" 0. slab.(6);
        (* A row range writes [out] at its rows' own indices and leaves
           the rows and [out] cells outside it untouched. *)
        let slab = [| 3.; 1.; 2.; 9.; 5.; 4.; 0.; 0.; 0.; 0.; 0.; 0. |] in
        let out = Array.make 3 0. in
        Sweep.sweep_rows ~slab ~width:4 ~counts ~f:1 ~lo:1 ~hi:3 ~out;
        check_float "range row 1" 4.5 out.(1);
        check_true "range empty row is nan" (Float.is_nan out.(2));
        check_float "out cell outside the range" 0. out.(0);
        check_float "row 0 outside the range" 3. slab.(0));
    t "sweep rejects bad shapes" (fun () ->
        let reject msg f =
          match f () with
          | () -> Alcotest.failf "%s: expected Invalid_argument" msg
          | exception Invalid_argument _ -> ()
        in
        reject "negative f" (fun () ->
            Sweep.sweep ~slab:[| 1. |] ~width:1 ~counts:[| 1 |] ~f:(-1)
              ~out:[| 0. |]);
        reject "count over width" (fun () ->
            Sweep.sweep ~slab:[| 1.; 2. |] ~width:1 ~counts:[| 2 |] ~f:0
              ~out:[| 0. |]);
        reject "short out" (fun () ->
            Sweep.sweep ~slab:[| 1.; 2. |] ~width:1 ~counts:[| 1; 1 |] ~f:0
              ~out:[| 0. |]);
        let rows ~lo ~hi ~out =
          Sweep.sweep_rows ~slab:[| 1.; 2. |] ~width:1 ~counts:[| 1; 1 |] ~f:0
            ~lo ~hi ~out
        in
        reject "negative lo" (fun () -> rows ~lo:(-1) ~hi:1 ~out:[| 0.; 0. |]);
        reject "hi past the rows" (fun () ->
            rows ~lo:0 ~hi:3 ~out:[| 0.; 0.; 0. |]);
        reject "lo after hi" (fun () -> rows ~lo:2 ~hi:1 ~out:[| 0.; 0. |]);
        reject "out shorter than the range" (fun () ->
            rows ~lo:0 ~hi:2 ~out:[| 0. |]);
        reject "out shorter than hi" (fun () -> rows ~lo:1 ~hi:2 ~out:[| 0. |]);
        reject "slab shorter than the rows" (fun () ->
            Sweep.sweep ~slab:[| 1. |] ~width:1 ~counts:[| 1; 1 |] ~f:0
              ~out:[| 0.; 0. |]);
        reject "empty mid_row" (fun () ->
            ignore (Sweep.mid_row [| 1. |] ~off:0 ~count:0 ~f:0)));
    t "degradation rule" (fun () ->
        check_int "empty" 0 (Sweep.g_of ~f:5 ~count:0);
        check_int "one" 0 (Sweep.g_of ~f:5 ~count:1);
        check_int "four" 1 (Sweep.g_of ~f:5 ~count:4);
        check_int "full attendance" 2 (Sweep.g_of ~f:2 ~count:7));
  ]

(* Differential reference for Soa.run_shard: the same arrivals scheduled
   into an event queue with a round-close timer per live row, drained in
   (time, prio) order, each arrival writing [time - delta] into its
   destination's row.  Row order differs from the direct fill; once
   sorted, the rows and their midpoints must match bit for bit. *)
module Event_queue = Csync_sim.Event_queue
module Graph = Csync_topo.Graph

type queued = Arrival of int | Close

let queue_rows ~width:qwidth ~buckets m ~delta ~crashed ~lo ~hi =
  let width = Soa.width m in
  let slab = Array.make ((hi - lo) * width) 0. in
  let counts = Array.make (hi - lo) 0 in
  let q = Event_queue.create ~width:qwidth ~buckets () in
  let last = ref neg_infinity in
  for dst = lo to hi - 1 do
    if Soa.is_ok m dst then begin
      slab.((dst - lo) * width) <- Soa.broadcast_time m dst;
      counts.(dst - lo) <- 1;
      for j = 0 to Soa.in_degree m dst - 1 do
        let src = Soa.in_neighbor m ~dst j in
        if not (List.mem src crashed) then begin
          let time = Soa.report_time m src +. Soa.link_delay m ~src ~dst in
          last := Float.max !last time;
          Event_queue.add q ~time ~prio:Event_queue.prio_message (Arrival dst)
        end
      done
    end
  done;
  for dst = lo to hi - 1 do
    if Soa.is_ok m dst then
      Event_queue.add q ~time:!last ~prio:Event_queue.prio_timer Close
  done;
  let events =
    Event_queue.iter_pop_until q ~until:Float.infinity ~f:(fun time -> function
      | Close -> ()
      | Arrival dst ->
        let row = dst - lo in
        slab.((row * width) + counts.(row)) <- time -. delta;
        counts.(row) <- counts.(row) + 1)
  in
  (events, slab, counts)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* [run_shard] fills rows [lo, hi) of the model's own store, indexed by
   destination; the reference fills a fresh [(hi - lo)]-row slab, draining
   a wheel of [buckets] buckets of [qwidth] seconds.  The comparison reads
   the shard's range of the store, slack slots included. *)
let check_against_queue ?(qwidth = 1e-4) ?(buckets = 256) name m ~delta
    ~crashed =
  let width = Soa.width m and f = Soa.f m in
  let swept slab counts =
    let mids = Array.make (Array.length counts) Float.nan in
    Sweep.sweep ~slab ~width ~counts ~f ~out:mids;
    mids
  in
  let n = Soa.n m in
  List.iter
    (fun (lo, hi) ->
      let s = Soa.run_shard m ~lo ~hi in
      let out = Array.make hi Float.nan in
      Sweep.sweep_rows ~slab:s.Soa.slab ~width ~counts:s.Soa.counts ~f ~lo ~hi
        ~out;
      let mids = Array.sub out lo (hi - lo) in
      let rows = Array.sub s.Soa.slab (lo * width) ((hi - lo) * width) in
      let row_counts = Array.sub s.Soa.counts lo (hi - lo) in
      let events, slab, counts =
        queue_rows ~width:qwidth ~buckets m ~delta ~crashed ~lo ~hi
      in
      let ref_mids = swept slab counts in
      let what = Printf.sprintf "%s [%d, %d)" name lo hi in
      check_int (what ^ " events") events s.Soa.count;
      check_true (what ^ " counts") (counts = row_counts);
      check_true (what ^ " sorted rows") (bits_equal slab rows);
      check_true (what ^ " midpoints") (bits_equal ref_mids mids))
    [ (0, n); (n / 3, (2 * n) / 3) ]

let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Rows [lo, hi) as [run_shard] fills them, checked bit for bit against
   the exported per-process functions: slot 0 is the destination's
   [broadcast_time], then one [report_time src + link_delay - delta] per
   non-crashed in-neighbour, in adjacency order.  This pins the model's
   cached report-time table to what the functions compute now. *)
let check_rows_exact what m ~delta ~crashed ~lo ~hi =
  let width = Soa.width m in
  let s = Soa.run_shard m ~lo ~hi in
  for dst = lo to hi - 1 do
    let base = dst * width in
    if Soa.is_ok m dst then begin
      if not (bits_eq s.Soa.slab.(base) (Soa.broadcast_time m dst)) then
        Alcotest.failf "%s: row %d slot 0 is not broadcast_time" what dst;
      let c = ref 1 in
      for j = 0 to Soa.in_degree m dst - 1 do
        let src = Soa.in_neighbor m ~dst j in
        if not (List.mem src crashed) then begin
          let want =
            Soa.report_time m src +. Soa.link_delay m ~src ~dst -. delta
          in
          if not (bits_eq s.Soa.slab.(base + !c) want) then
            Alcotest.failf "%s: row %d estimate from %d differs" what dst src;
          incr c
        end
      done;
      check_int (what ^ " count") !c s.Soa.counts.(dst)
    end
    else check_int (what ^ " faulty row empty") 0 s.Soa.counts.(dst)
  done

let soa_tests =
  [
    t "report-time table follows every mutator" (fun () ->
        let delta = 0.01 and n = 60 in
        let m = Soa.create ~n ~degree:5 ~seed:7 ~delta ~dispersion:0.5 () in
        let check what ~crashed =
          check_rows_exact what m ~delta ~crashed ~lo:0 ~hi:n
        in
        check "round 0" ~crashed:[];
        Soa.crash m 7;
        check "after crash" ~crashed:[ 7 ];
        Soa.set_pull m 13 0.25;
        check "after set_pull" ~crashed:[ 7 ];
        let s = Soa.run_shard m ~lo:0 ~hi:n in
        let mids = Array.make n Float.nan in
        Sweep.sweep ~slab:s.Soa.slab ~width:(Soa.width m) ~counts:s.Soa.counts
          ~f:(Soa.f m) ~out:mids;
        Soa.apply m ~lo:0 mids;
        check "after apply" ~crashed:[ 7 ];
        Soa.advance m;
        check "after advance" ~crashed:[ 7 ];
        (* A fault injected between two shards of one round: the second
           shard must see it.  29 sits in the first half; the processes
           that hear it, 30 .. 34, in the second. *)
        check_rows_exact "first half" m ~delta ~crashed:[ 7 ] ~lo:0 ~hi:(n / 2);
        Soa.set_pull m 29 (-0.1);
        check_rows_exact "second half after set_pull" m ~delta ~crashed:[ 7 ]
          ~lo:(n / 2) ~hi:n);
    t "ring neighbours wrap and are distinct" (fun () ->
        let m = Soa.create ~n:10 ~degree:3 () in
        check_int "j=0" 4 (Soa.in_neighbor m ~dst:5 0);
        check_int "j=2" 2 (Soa.in_neighbor m ~dst:5 2);
        check_int "wrap" 9 (Soa.in_neighbor m ~dst:0 0);
        check_int "wrap deep" 7 (Soa.in_neighbor m ~dst:0 2));
    t "same seed, same model; different seed, different delays" (fun () ->
        let a = Soa.create ~n:64 ~seed:3 () in
        let b = Soa.create ~n:64 ~seed:3 () in
        let c = Soa.create ~n:64 ~seed:4 () in
        let same = ref true and diff = ref false in
        for p = 0 to 63 do
          if Soa.broadcast_time a p <> Soa.broadcast_time b p then same := false;
          if Soa.broadcast_time a p <> Soa.broadcast_time c p then diff := true
        done;
        check_true "seed 3 twice agrees" !same;
        check_true "seed 4 differs somewhere" !diff);
    t "round event count is exact on a clean ring" (fun () ->
        (* All nonfaulty: every process contributes degree arrivals plus a
           round timer. *)
        let m = Soa.create ~n:50 ~degree:5 () in
        let events, _ = Scale.round ~jobs:1 m in
        check_int "n (degree + 1)" (50 * 6) events);
    t "crash removes a row and its out-edges" (fun () ->
        let m = Soa.create ~n:50 ~degree:5 () in
        Soa.crash m 10;
        let events, _ = Scale.round ~jobs:1 m in
        (* Its own row (5 arrivals + timer) and one arrival in each of its
           5 successors' rows are gone. *)
        check_int "minus row and edges" ((50 * 6) - 6 - 5) events);
    t "estimates land within eps of the sender's round start" (fun () ->
        let m = Soa.create ~n:40 ~degree:4 ~eps:0.002 ~seed:5 () in
        let s = Soa.run_shard m ~lo:0 ~hi:40 in
        let width = Soa.width m in
        for row = 0 to 39 do
          check_int "full row" (width) s.Soa.counts.(row);
          (* Slot 0 is the exact self-sample; arrivals follow. *)
          for c = 1 to s.Soa.counts.(row) - 1 do
            let est = s.Soa.slab.((row * width) + c) in
            let ok = ref false in
            for j = 0 to Soa.degree m - 1 do
              let src = Soa.in_neighbor m ~dst:row j in
              if Float.abs (est -. Soa.report_time m src) <= 0.002 +. 1e-9 then
                ok := true
            done;
            check_true "within eps of some in-neighbour" !ok
          done
        done);
    t "direct row fill matches a queue-drained reference" (fun () ->
        let delta = 0.01 in
        let check name m ~crashed =
          (* Round 0, then again after two rounds of corrections. *)
          check_against_queue name m ~delta ~crashed;
          ignore (Scale.round ~jobs:1 m);
          ignore (Scale.round ~jobs:1 m);
          check_against_queue name m ~delta ~crashed
        in
        check "ring" (Soa.create ~n:200 ~degree:6 ~seed:9 ~delta ()) ~crashed:[];
        let graph = Graph.expander ~n:300 ~degree:8 ~seed:4 in
        check "expander"
          (Soa.create ~graph ~seed:4 ~delta ~dispersion:0.02
             ~mode:(Soa.Gradient_avg 0.5) ~n:300 ())
          ~crashed:[];
        let m = Soa.create ~n:500 ~degree:7 ~seed:11 ~delta ~dispersion:0.5 () in
        Soa.crash m 17;
        Soa.set_pull m 42 0.3;
        Soa.set_pull m 499 (-0.2);
        check "crash + pull" m ~crashed:[ 17 ]);
    t "shards in reverse order fill the same rows" (fun () ->
        let n = 300 in
        let make () =
          let graph = Graph.expander ~n ~degree:8 ~seed:4 in
          let m =
            Soa.create ~graph ~seed:4 ~dispersion:0.02
              ~mode:(Soa.Gradient_avg 0.5) ~n ()
          in
          Soa.crash m 17;
          Soa.set_pull m 42 0.3;
          m
        in
        let whole = make () and pieces = make () in
        let width = Soa.width whole and f = Soa.f whole in
        let s = Soa.run_shard whole ~lo:0 ~hi:n in
        let mids = Array.make n Float.nan in
        Sweep.sweep ~slab:s.Soa.slab ~width ~counts:s.Soa.counts ~f ~out:mids;
        let piece_mids = Array.make n Float.nan in
        let shards =
          List.map
            (fun (lo, hi) ->
              let p = Soa.run_shard pieces ~lo ~hi in
              Sweep.sweep_rows ~slab:p.Soa.slab ~width ~counts:p.Soa.counts ~f
                ~lo ~hi ~out:piece_mids;
              p)
            [ (200, n); (100, 200); (0, 100) ]
        in
        let p = List.hd shards in
        check_int "events" s.Soa.count
          (List.fold_left (fun acc p -> acc + p.Soa.count) 0 shards);
        check_true "counts" (s.Soa.counts = p.Soa.counts);
        check_true "sorted rows" (bits_equal s.Soa.slab p.Soa.slab);
        check_true "midpoints" (bits_equal mids piece_mids);
        (* Scale cuts three shards at the same boundaries. *)
        let events1, sum1 = Scale.round ~jobs:1 whole in
        let events3, sum3 = Scale.round ~jobs:3 pieces in
        check_int "round events" events1 events3;
        check_true "round checksum" (sum1 = sum3);
        check_true "state"
          (Scale.state_checksum whole = Scale.state_checksum pieces));
    t "run_shard leaves other rows' counts untouched" (fun () ->
        let n = 90 and lo = 30 and hi = 60 in
        let m = Soa.create ~n ~degree:6 ~seed:3 ~dispersion:0.5 () in
        let s = Soa.run_shard m ~lo:0 ~hi:n in
        let counts0 = Array.copy s.Soa.counts in
        let slab0 = Array.copy s.Soa.slab in
        let width = Soa.width m in
        (* Crashes below, inside and above the range: every row they
           touch would change if it were refilled. *)
        List.iter (Soa.crash m) [ 10; 45; 80 ];
        let s = Soa.run_shard m ~lo ~hi in
        for dst = 0 to n - 1 do
          if dst < lo || dst >= hi then begin
            check_int (Printf.sprintf "count %d" dst) counts0.(dst)
              s.Soa.counts.(dst);
            check_true
              (Printf.sprintf "row %d" dst)
              (bits_equal
                 (Array.sub slab0 (dst * width) width)
                 (Array.sub s.Soa.slab (dst * width) width))
          end
        done;
        check_int "crashed row in range emptied" 0 s.Soa.counts.(45);
        check_int "row hearing the crash shrinks" (counts0.(46) - 1)
          s.Soa.counts.(46));
    t "gradient apply is Gradient.target, bit for bit" (fun () ->
        (* [apply] writes the gradient step out by hand; a Midpoint twin
           fed [Gradient.target]'s values must land on the same
           corrections. *)
        let gain = 0.3 in
        let make mode =
          let graph = Graph.expander ~n:300 ~degree:8 ~seed:4 in
          let m = Soa.create ~graph ~seed:4 ~dispersion:0.02 ~mode ~n:300 () in
          Soa.crash m 17;
          Soa.set_pull m 42 0.3;
          m
        in
        let grad = make (Soa.Gradient_avg gain) and mid = make Soa.Midpoint in
        let sh = Soa.run_shard grad ~lo:0 ~hi:300 in
        let mids = Array.make 300 Float.nan in
        Sweep.sweep ~slab:sh.Soa.slab ~width:(Soa.width grad) ~counts:sh.Soa.counts
          ~f:(Soa.f grad) ~out:mids;
        let targets =
          Array.mapi
            (fun p m ->
              Csync_topo.Gradient.target ~gain ~own:(Soa.broadcast_time mid p)
                ~mid:m)
            mids
        in
        Soa.apply grad ~lo:0 mids;
        Soa.apply mid ~lo:0 targets;
        for p = 0 to 299 do
          if Int64.bits_of_float (Soa.corr grad p)
             <> Int64.bits_of_float (Soa.corr mid p)
          then Alcotest.failf "corr %d differs" p
        done);
  ]

let scale_model () =
  let m = Soa.create ~n:500 ~degree:7 ~f:2 ~seed:11 ~dispersion:0.5 () in
  Soa.crash m 17;
  Soa.set_pull m 42 0.3;
  Soa.set_pull m 499 (-0.2);
  m

(* The round checksum's definition, one row at a time: each row's chain
   starts from [mix (row lxor count)] and folds its sorted estimates'
   bits in order; rows combine by wrap-around addition.  [Scale] hashes
   four rows in lockstep and must agree with this bit for bit. *)
let reference_digest ~width (s : Soa.shard) =
  let mix x =
    let x = x lxor (x lsr 31) in
    let x = x * 0x2545F4914F6CDD1D in
    let x = x lxor (x lsr 29) in
    let x = x * 0x1F123BB5159A55E5 in
    x lxor (x lsr 32)
  in
  let sum = ref 0 in
  for row = s.Soa.lo to s.Soa.hi - 1 do
    let c = s.Soa.counts.(row) in
    let h = ref (mix (row lxor c)) in
    for k = row * width to (row * width) + c - 1 do
      h := mix (!h lxor Int64.to_int (Int64.bits_of_float s.Soa.slab.(k)))
    done;
    sum := !sum + !h
  done;
  !sum

(* The model's midpoint store: [run_shard] lends it and never writes it,
   and it is the same array for the model's lifetime. *)
let mids_store m = (Soa.run_shard m ~lo:0 ~hi:1).Soa.mids

(* Ring models of width 2..17 with crashed rows (empty) and crashed
   neighbours (short rows), at sizes that leave shards of every length
   mod 4. *)
let gen_digest_case =
  QCheck.Gen.(
    let* n = int_range 18 70 in
    let* degree = int_range 1 16 in
    let* seed = int_bound 10_000 in
    let* crashed = list_size (int_bound 8) (int_bound (n - 1)) in
    let* pulled = list_size (int_bound 3) (int_bound (n - 1)) in
    return (n, degree, seed, crashed, pulled))

let print_digest_case (n, degree, seed, crashed, pulled) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "n=%d degree=%d seed=%d crashed=[%s] pulled=[%s]" n degree
    seed (ints crashed) (ints pulled)

let digest_matches_reference (n, degree, seed, crashed, pulled) =
  let make () =
    let m = Soa.create ~n ~degree ~f:2 ~seed ~dispersion:0.3 () in
    List.iter (Soa.crash m) crashed;
    List.iter (fun p -> if Soa.is_ok m p then Soa.set_pull m p 0.2) pulled;
    m
  in
  let reference = make () in
  let width = Soa.width reference in
  let ref_mids = Array.make n Float.nan in
  let runs = List.map (fun jobs -> (jobs, make ())) [ 1; 3 ] in
  let stores = List.map (fun (_, m) -> mids_store m) runs in
  List.for_all
    (fun _round ->
      let s = Soa.run_shard reference ~lo:0 ~hi:n in
      Sweep.sweep ~slab:s.Soa.slab ~width ~counts:s.Soa.counts
        ~f:(Soa.f reference) ~out:ref_mids;
      let want = reference_digest ~width s in
      Soa.apply reference ~lo:0 ref_mids;
      Soa.advance reference;
      List.for_all2
        (fun (jobs, m) store ->
          let _, got = Scale.round ~jobs m in
          got = want && bits_equal store ref_mids)
        runs stores)
    [ 1; 2 ]

(* Words per event of a warm [jobs:1] round on the benchmark's shape. *)
let check_warm_round_words ~bound =
  let m = expander_model () in
  ignore (Scale.round ~jobs:1 m);
  let events = ref 0 in
  let words =
    Helpers.allocated_words (fun () -> events := fst (Scale.round ~jobs:1 m))
  in
  let per_event = words /. float_of_int !events in
  if not (per_event <= bound) then
    Alcotest.failf "%.4f words per event over %d events" per_event !events

let scale_tests =
  [
    t "scale round stays under one word per event" (fun () ->
        check_warm_round_words ~bound:1.0);
    t "warm scale round allocates <= 0.01 words/event" (fun () ->
        (* No per-round midpoint array: at n = 10^4 one was 10k words. *)
        check_warm_round_words ~bound:0.01);
    qcheck
      (QCheck.Test.make ~count:300
         ~name:"interleaved row digest matches the one-row reference"
         (QCheck.make ~print:print_digest_case gen_digest_case)
         digest_matches_reference);
    t "jobs 3 sweeps the jobs-1 midpoints into the shared store" (fun () ->
        let run jobs =
          let m = scale_model () in
          let store = mids_store m in
          let _, sum = Scale.round ~jobs m in
          (m, Array.copy store, sum)
        in
        let m1, mids1, sum1 = run 1 in
        let m3, mids3, sum3 = run 3 in
        check_true "some row was swept"
          (Array.exists Float.is_finite mids1);
        check_true "midpoints" (bits_equal mids1 mids3);
        check_true "round checksum" (sum1 = sum3);
        check_true "state"
          (Scale.state_checksum m1 = Scale.state_checksum m3));
    t "trajectory and merge checksum are worker-count invariant" (fun () ->
        let run jobs =
          let m = scale_model () in
          let s = Scale.run ~jobs ~rounds:3 m in
          (s.Scale.events, s.Scale.checksum, Scale.state_checksum m)
        in
        let e1, c1, st1 = run 1 in
        let e3, c3, st3 = run 3 in
        let e4, c4, st4 = run 4 in
        check_int "events 3 jobs" e1 e3;
        check_int "events 4 jobs" e1 e4;
        check_true "checksum 3 jobs" (c1 = c3);
        check_true "checksum 4 jobs" (c1 = c4);
        check_true "state 3 jobs" (st1 = st3);
        check_true "state 4 jobs" (st1 = st4));
    t "queue reference through the overflow matches the direct fill"
      (fun () ->
        (* Arrivals spread over the 0.5 s dispersion; a 1/1200 s width
           (non-dyadic) and 8 buckets send nearly every one through the
           overflow heap and its promotion at the horizon. *)
        let delta = 0.01 in
        let m = Soa.create ~n:500 ~degree:7 ~seed:11 ~delta ~dispersion:0.5 () in
        Soa.crash m 17;
        Soa.set_pull m 42 0.3;
        check_against_queue ~qwidth:(delta /. 12.) ~buckets:8 "overflow" m
          ~delta ~crashed:[ 17 ]);
    t "reduced midpoint contracts the dispersion" (fun () ->
        let m = Soa.create ~n:400 ~degree:8 ~f:2 ~seed:2 ~dispersion:1.0 () in
        let s = Scale.run ~jobs:1 ~rounds:4 m in
        check_true "spread0 near dispersion" (s.Scale.spread0 > 0.5);
        check_true "contracted" (s.Scale.spread1 < 0.7 *. s.Scale.spread0));
    t "faulty processes never adjust" (fun () ->
        let m = scale_model () in
        let s = Scale.run ~jobs:1 ~rounds:2 m in
        check_true "ran" (s.Scale.events > 0);
        check_float "crashed corr untouched" 0. (Soa.corr m 17);
        check_float "pull corr untouched" 0. (Soa.corr m 42));
  ]

(* The satellite identity: a monitored experiment run - online theorem
   checks live - still renders byte-identically at 1 and 4 workers. *)
let monitored_identity_tests =
  [
    t "monitored E1 tables byte-identical at 1 and 4 workers" (fun () ->
        let e1 =
          List.filter
            (fun e -> String.equal e.Csync_harness.Experiment.id "E1")
            Registry.all
        in
        check_int "E1 exists" 1 (List.length e1);
        let render jobs =
          let mon = Mon.create () in
          Mon.install mon;
          let out =
            Fun.protect ~finally:Mon.clear_installed (fun () ->
                Registry.run_list ~jobs ~quick:true e1
                |> List.concat_map (fun (_, tables) ->
                       List.map Csync_metrics.Table.to_csv tables)
                |> String.concat "\n")
          in
          (out, Mon.checks_performed mon, Mon.violations_total mon)
        in
        let out1, checks1, viol1 = render 1 in
        let out4, checks4, viol4 = render 4 in
        check_true "tables nonempty" (String.length out1 > 0);
        Alcotest.(check string) "tables" out1 out4;
        check_int "monitor checks" checks1 checks4;
        check_int "monitor violations" viol1 viol4;
        check_int "no violations" 0 viol1);
  ]

(* The observability tentpole's identity: the canonical binary trace of a
   telemetry-on scale run is byte-identical at any worker count - and
   telemetry never perturbs the trajectory. *)
module Obs = Csync_obs.Registry
module Record = Csync_obs.Record
module Btrace = Csync_obs.Btrace
module Report = Csync_obs.Report
module Diff = Csync_obs.Diff

let big_model ~n () =
  let m = Soa.create ~n ~degree:8 ~f:2 ~seed:11 ~dispersion:0.5 () in
  Soa.crash m 17;
  Soa.set_pull m 42 0.3;
  m

let result_key (s : Scale.stats) =
  (s.Scale.events, s.Scale.checksum, s.Scale.state)

(* Run with telemetry captured; return the result key and the canonical
   records of the trace. *)
let captured ~jobs ~rounds ~n () =
  let reg = Obs.create () in
  Obs.install reg;
  let stats =
    Fun.protect ~finally:Obs.clear_installed (fun () ->
        Scale.run ~jobs ~rounds (big_model ~n ()))
  in
  (result_key stats, Record.canonical (Obs.records reg))

let btrace_bytes records =
  let path = Filename.temp_file "csync_scale" ".btrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Btrace.write_file path records;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let trace_identity_tests =
  [
    t "canonical binary trace byte-identical: jobs 1/4" (fun () ->
        let k1, r1 = captured ~jobs:1 ~rounds:2 ~n:10_000 () in
        let k4, r4 = captured ~jobs:4 ~rounds:2 ~n:10_000 () in
        check_true "results identical across jobs" (k1 = k4);
        check_true "trace has telemetry" (List.length r1 > 3);
        check_true "bytes identical across jobs"
          (String.equal (btrace_bytes r1) (btrace_bytes r4)));
    t "telemetry leaves the scale trajectory untouched" (fun () ->
        let plain = result_key (Scale.run ~jobs:2 ~rounds:2 (big_model ~n:2000 ())) in
        let traced, _ = captured ~jobs:2 ~rounds:2 ~n:2000 () in
        check_true "identical" (plain = traced));
    t "report --diff of captures at different jobs: no differences" (fun () ->
        let _, r1 = captured ~jobs:1 ~rounds:2 ~n:2000 () in
        let _, r4 = captured ~jobs:4 ~rounds:2 ~n:2000 () in
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        Diff.render ppf ~name_a:"jobs1" ~name_b:"jobs4"
          (Report.of_records r1) (Report.of_records r4);
        Format.pp_print_flush ppf ();
        check_true "diff is clean"
          (Helpers.contains (Buffer.contents buf) "no differences"));
  ]

let suite =
  List.concat
    [
      sweep_tests; soa_tests; scale_tests; monitored_identity_tests;
      trace_identity_tests;
    ]
