(* Tests for the simulation substrate: RNG, heap, event queue (against a
   heap-based reference), engine, and the message buffer's provenance. *)

module Rng = Csync_sim.Rng
module Heap = Csync_sim.Heap
module Event_queue = Csync_sim.Event_queue
module Engine = Csync_sim.Engine
module Mon = Csync_obs.Monitor
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* The first draws of seeds 0, 1 and 42, pinned: every simulation is a
   pure function of its seed, so a change to the stream would silently
   change every result.  [child] is the stream of [split] on a fresh
   generator. *)
type pinned_stream = {
  seed : int;
  int64s : int64 array;
  floats : float array;
  ints : int array;  (* [int r 1000] *)
  child : int64 array;
}

let pinned_streams =
  [
    {
      seed = 0;
      int64s =
        [|
          0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
          0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
          0x2c829abe1f4532e1L; 0xc584133ac916ab3cL
        |];
      floats =
        [|
          0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
          0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
          0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1
        |];
      ints = [| 767; 850; 839; 222; 373; 45; 456; 470 |];
      child =
        [|
          0xf6930d4bd1b6531dL; 0xbf2a551f3640526fL; 0xbbcc96003624aa63L;
          0xf3dc2cddfa6dd350L; 0x5894ef4ed20a4469L; 0xcbe705671c4d8a36L;
          0x15de63ed7ac2b58dL; 0xa216492f33396d05L
        |];
    };
    {
      seed = 1;
      int64s =
        [|
          0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL;
          0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L;
          0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L
        |];
      floats =
        [|
          0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
          0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1;
          0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1
        |];
      ints = [| 232; 259; 295; 117; 380; 24; 522; 266 |];
      child =
        [|
          0x04e28e23cc1fafc4L; 0xdd9d68f2aaf0a5f3L; 0x7fda014a0d403517L;
          0x7cdcfa8a26f79153L; 0x93a032cac824f064L; 0x08e0617e2520a7aeL;
          0x103b525249e07890L; 0x4889f97d30578120L
        |];
    };
    {
      seed = 42;
      int64s =
        [|
          0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
          0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
          0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L
        |];
      floats =
        [|
          0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
          0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
          0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1
        |];
      ints = [| 706; 145; 929; 882; 625; 531; 462; 954 |];
      child =
        [|
          0x46b66b3cdce67ac8L; 0x82c9d1b30287f7c0L; 0x7f2f72486cf12742L;
          0x8b8699020ceacf64L; 0x74f62bb3925ed33aL; 0xfd10286413473accL;
          0xc7bed5d03be2b62fL; 0x9671f4570a2b15b4L
        |];
    }
  ]

let draws n f = Array.init n (fun _ -> f ())

let rng_tests =
  [
    t "rng deterministic" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          check_true "same stream" (Rng.int64 a = Rng.int64 b)
        done);
    t "rng different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        check_true "differ" (Rng.int64 a <> Rng.int64 b));
    t "copy preserves state" (fun () ->
        let a = Rng.create 5 in
        ignore (Rng.int64 a);
        let b = Rng.copy a in
        check_true "same next" (Rng.int64 a = Rng.int64 b));
    t "split independent of parent draws" (fun () ->
        let a = Rng.create 9 and b = Rng.create 9 in
        let sa = Rng.split a and sb = Rng.split b in
        ignore (Rng.int64 a);
        (* consuming the parent must not affect the child *)
        check_true "children agree" (Rng.int64 sa = Rng.int64 sb));
    t "float in [0,1)" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.float r in
          check_true "range" (x >= 0. && x < 1.)
        done);
    t "uniform respects bounds" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.uniform r ~lo:(-2.) ~hi:5. in
          check_true "range" (x >= -2. && x < 5.)
        done);
    t "uniform rejects inverted bounds" (fun () ->
        check_raises_invalid "lo>hi" (fun () ->
            Rng.uniform (Rng.create 1) ~lo:1. ~hi:0.));
    t "int range and error" (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 1000 do
          let x = Rng.int r 7 in
          check_true "range" (x >= 0 && x < 7)
        done;
        check_raises_invalid "n=0" (fun () -> Rng.int r 0));
    t "gaussian roughly standard" (fun () ->
        let r = Rng.create 11 in
        let n = 20_000 in
        let sum = ref 0. and sumsq = ref 0. in
        for _ = 1 to n do
          let x = Rng.gaussian r in
          sum := !sum +. x;
          sumsq := !sumsq +. (x *. x)
        done;
        let mean = !sum /. float_of_int n in
        let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
        check_true "mean ~0" (Float.abs mean < 0.05);
        check_true "var ~1" (Float.abs (var -. 1.) < 0.1));
    t "shuffle is a permutation" (fun () ->
        let a = Array.init 50 Fun.id in
        Rng.shuffle (Rng.create 2) a;
        let sorted = Array.copy a in
        Array.sort Int.compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
    t "Rng stream is pinned" (fun () ->
        List.iter
          (fun p ->
            let fresh () = Rng.create p.seed in
            let r = fresh () in
            Alcotest.(check (array int64)) "int64" p.int64s (draws 8 (fun () -> Rng.int64 r));
            let r = fresh () in
            Alcotest.(check (array (float 0.))) "float" p.floats
              (draws 8 (fun () -> Rng.float r));
            let r = fresh () in
            Alcotest.(check (array int)) "int 1000" p.ints
              (draws 8 (fun () -> Rng.int r 1000));
            let r = fresh () in
            let c = Rng.split r in
            Alcotest.(check (array int64)) "split child" p.child
              (draws 8 (fun () -> Rng.int64 c));
            Alcotest.(check int64) "split advances the parent once" p.int64s.(1)
              (Rng.int64 r))
          pinned_streams);
    t "Rng.int allocates 0 words" (fun () ->
        let r = Rng.create 3 in
        let acc = ref 0 in
        let draw () =
          for _ = 1 to 10_000 do
            acc := !acc + Rng.int r 1000
          done
        in
        draw ();
        Alcotest.(check (float 0.)) "words" 0. (allocated_words draw));
  ]

let heap_tests =
  [
    t "pop order is sorted" (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
        let rec drain acc =
          match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (drain []));
    t "peek does not remove" (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        Heap.push h 2;
        check_true "peek" (Heap.peek h = Some 2);
        check_int "size" 1 (Heap.size h));
    t "pop_exn on empty raises" (fun () ->
        check_raises_invalid "empty" (fun () ->
            Heap.pop_exn (Heap.create ~cmp:Int.compare)));
  ]

(* The reference the wheel is checked against: a binary heap ordered by
   (time, prio, seq), the queue's documented contract and nothing else. *)
module Ref_queue = struct
  type 'a t = { heap : (float * int * int * 'a) Heap.t; mutable seq : int }

  let create () =
    let cmp (t1, p1, s1, _) (t2, p2, s2, _) =
      let c = Float.compare t1 t2 in
      if c <> 0 then c
      else
        let c = Int.compare p1 p2 in
        if c <> 0 then c else Int.compare s1 s2
    in
    { heap = Heap.create ~cmp; seq = 0 }

  let add q ~time ~prio v =
    Heap.push q.heap (time, prio, q.seq, v);
    q.seq <- q.seq + 1

  let size q = Heap.size q.heap

  let pop q = Option.map (fun (time, _, _, v) -> (time, v)) (Heap.pop q.heap)

  let pop_if_before q ~until =
    match Heap.peek q.heap with
    | Some (time, _, _, _) when time <= until -> pop q
    | _ -> None
end

(* Pop both queues to empty; true iff every pop agrees. *)
let drain_both wheel reference =
  let ok = ref true in
  let more = ref true in
  while !more do
    let a = Event_queue.pop wheel and b = Ref_queue.pop reference in
    if a <> b then ok := false;
    if a = None && b = None then more := false
  done;
  !ok

(* Add the same events to a wheel and the reference, then drain both. *)
let same_order ~width ~buckets events =
  let wheel = Event_queue.create ~width ~buckets () in
  let reference = Ref_queue.create () in
  List.iteri
    (fun i (time, prio) ->
      Event_queue.add wheel ~time ~prio i;
      Ref_queue.add reference ~time ~prio i)
    events;
  drain_both wheel reference

(* [Float.pred], the value itself and [Float.succ] of [x]. *)
let around x = [ Float.pred x; x; Float.succ x ]

(* Bucket boundaries [base + k * width] of a non-dyadic width round, so
   an event one ulp either side of one can divide into the neighbouring
   bucket.  Promotion past the horizon must use the same index as [add],
   or such an event aliases into the current physical bucket. *)
let horizon_edge_tests =
  [
    t "reference queue orders by (time, prio, seq)" (fun () ->
        let q = Ref_queue.create () in
        List.iter
          (fun (time, prio, v) -> Ref_queue.add q ~time ~prio v)
          [ (2., 0, "c"); (1., 1, "b"); (1., 0, "a"); (1., 1, "b2") ];
        check_int "size" 4 (Ref_queue.size q);
        check_true "not before 1" (Ref_queue.pop_if_before q ~until:0.5 = None);
        let rec drain acc =
          match Ref_queue.pop q with
          | Some (_, v) -> drain (v :: acc)
          | None -> List.rev acc
        in
        Alcotest.(check (list string)) "order" [ "a"; "b"; "b2"; "c" ]
          (drain []));
    t "horizon-edge event pops in time order" (fun () ->
        (* Width 1/12, 4096 buckets.  Popping A moves the epoch to Y's
           bucket 764, whose horizon ends at bucket 4860.  X is one ulp
           below 4860 * w but divides to exactly 4860: it belongs to the
           overflow until bucket 764 + 1 is current, not to bucket 764. *)
        let w = 1. /. 12. in
        let q = Event_queue.create ~width:w ~buckets:4096 () in
        List.iter
          (fun (time, v) -> Event_queue.add q ~time ~prio:0 v)
          [
            (0., "A");
            (764.5 *. w, "Y");
            (404.99999999999994, "X");
            (800. *. w, "Z");
          ];
        let rec drain acc =
          match Event_queue.pop q with
          | Some (_, v) -> drain (v :: acc)
          | None -> List.rev acc
        in
        Alcotest.(check (list string)) "order" [ "A"; "Y"; "Z"; "X" ]
          (drain []));
    t "bucket and horizon edges pop in reference order" (fun () ->
        (* Every boundary [anchor + k * width] up to three horizons out,
           one ulp either side: with every bucket occupied the epoch
           passes each k, so each boundary is tested as the horizon. *)
        List.iter
          (fun (width, buckets, anchor) ->
            let events =
              (anchor, 0)
              :: List.concat
                   (List.init ((3 * buckets) + 3) (fun k ->
                        List.map
                          (fun time -> (time, k land 1))
                          (around (anchor +. (float_of_int k *. width)))))
            in
            if not (same_order ~width ~buckets events) then
              Alcotest.failf "width %h, %d buckets, anchor %h" width buckets
                anchor)
          (List.concat_map
             (fun width ->
               List.concat_map
                 (fun buckets ->
                   List.map
                     (fun anchor -> (width, buckets, anchor))
                     [ 0.; 1. /. 3.; 17.1 ])
                 [ 1; 2; 8; 64; 4096 ])
             [ 1. /. 12.; 0.3; 0.1; 1. /. 3.; 0.7 ]));
  ]

let heap_sort_tests =
  [
    t "to_sorted_list non-destructive" (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.push h) [ 3; 1; 2 ];
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Heap.to_sorted_list h);
        check_int "size intact" 3 (Heap.size h));
    qcheck ~name:"heap sorts like List.sort"
      QCheck2.Gen.(list (int_range (-1000) 1000))
      (fun l ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.push h) l;
        Heap.to_sorted_list h = List.sort Int.compare l);
  ]

let queue_tests =
  [
    t "orders by time" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:2. ~prio:0 "b";
        Event_queue.add q ~time:1. ~prio:0 "a";
        check_true "a first" (Event_queue.pop q = Some (1., "a")));
    t "messages before timers at equal time (property 4)" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:1. ~prio:Event_queue.prio_timer "timer";
        Event_queue.add q ~time:1. ~prio:Event_queue.prio_message "msg";
        check_true "msg first" (Event_queue.pop q = Some (1., "msg"));
        check_true "timer second" (Event_queue.pop q = Some (1., "timer")));
    t "FIFO within same time and class" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:1. ~prio:0 "first";
        Event_queue.add q ~time:1. ~prio:0 "second";
        check_true "fifo" (Event_queue.pop q = Some (1., "first")));
    t "peek_time" (fun () ->
        let q = Event_queue.create () in
        check_true "empty" (Event_queue.peek_time q = None);
        Event_queue.add q ~time:3. ~prio:0 ();
        check_true "peek" (Event_queue.peek_time q = Some 3.));
    t "rejects non-finite time" (fun () ->
        check_raises_invalid "nan" (fun () ->
            Event_queue.add (Event_queue.create ()) ~time:Float.nan ~prio:0 ()));
  ]

let engine_tests =
  [
    t "now advances with events" (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~time:5. ();
        ignore (Engine.next e);
        check_float "now" 5. (Engine.now e));
    t "rejects scheduling in the past" (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~time:5. ();
        ignore (Engine.next e);
        check_raises_invalid "past" (fun () -> Engine.schedule e ~time:4. ()));
    t "run_until processes window and advances now" (fun () ->
        let e = Engine.create () in
        List.iter (fun tm -> Engine.schedule e ~time:tm tm) [ 1.; 2.; 7. ];
        let seen = ref [] in
        Engine.run_until e ~until:3. ~handler:(fun _ x -> seen := x :: !seen);
        Alcotest.(check (list (float 0.))) "window" [ 2.; 1. ] !seen;
        check_float "now" 3. (Engine.now e);
        check_int "pending" 1 (Engine.pending e));
    t "handler may schedule inside the window" (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~time:1. `A;
        let seen = ref 0 in
        Engine.run_until e ~until:2. ~handler:(fun _ ev ->
            incr seen;
            match ev with `A -> Engine.schedule e ~time:1.5 `B | `B -> ());
        check_int "both" 2 !seen);
    t "run_until earlier than now is a no-op" (fun () ->
        let e = Engine.create () in
        Engine.run_until e ~until:10. ~handler:(fun _ () -> ());
        Engine.run_until e ~until:5. ~handler:(fun _ () -> Alcotest.fail "no");
        check_float "now" 10. (Engine.now e));
    t "drain respects max_events" (fun () ->
        let e = Engine.create () in
        for i = 1 to 10 do
          Engine.schedule e ~time:(float_of_int i) ()
        done;
        let n = Engine.drain e ~handler:(fun _ () -> ()) ~max_events:3 in
        check_int "guard" 3 n;
        check_int "left" 7 (Engine.pending e));
    t "step returns false on empty" (fun () ->
        check_bool "empty" false
          (Engine.step (Engine.create ()) ~handler:(fun _ () -> ())));
  ]

(* The canonical-state model checker (lib/check) assumes the event order of
   a schedule is a pure function of (time, priority, insertion order) - no
   hidden heap nondeterminism.  The queue promises FIFO among exact ties
   (the [seq] field); this pins it down as a property over arbitrary
   insertion patterns, including heavy tie clusters. *)
let tie_break_tests =
  [
    qcheck ~count:300 ~name:"equal (time, prio) pops FIFO by insertion"
      QCheck2.Gen.(
        list_size (int_range 1 80) (pair (int_range 0 3) (int_range 0 1)))
      (fun entries ->
        let q = Event_queue.create () in
        List.iteri
          (fun i (tm, prio) ->
            Event_queue.add q ~time:(float_of_int tm) ~prio i)
          entries;
        let order = ref [] in
        let rec drain () =
          match Event_queue.pop q with
          | Some (_, i) ->
            order := i :: !order;
            drain ()
          | None -> ()
        in
        drain ();
        let keys = Array.of_list entries in
        let expected =
          List.stable_sort
            (fun a b -> compare keys.(a) keys.(b))
            (List.init (List.length entries) Fun.id)
        in
        List.rev !order = expected);
  ]

(* The timing wheel must pop exactly the reference's order (time, then
   prio class, then FIFO seq) over any insertion pattern, including tie
   clusters, interleaved pops, adds behind the current bucket window, and
   events past the wheel horizon (overflow promotion).  Geometry is drawn
   randomly, non-dyadic widths included, so tiny wheels (1-2 buckets,
   narrow horizons) are exercised as hard as roomy ones; edge times sit
   one ulp either side of a bucket boundary of the current anchor. *)
let wheel_tests =
  [
    qcheck ~count:500 ~name:"wheel pops exactly the heap's order"
      QCheck2.Gen.(
        triple
          (list_size (int_range 1 150)
             (frequency
                [
                  ( 4,
                    map2
                      (fun tm p -> `Add (tm, p))
                      (int_range 0 60) (int_range 0 3) );
                  ( 3,
                    map3
                      (fun k d p -> `Edge (k, d, p))
                      (int_range 0 150) (int_range (-1) 1) (int_range 0 1) );
                  (2, pure `Pop);
                ]))
          (int_range 0 5) (int_range 0 3))
      (fun (ops, wi, bi) ->
        let width = [| 0.1; 0.3; 1.0; 5.0; 1. /. 12.; 0.7 |].(wi) in
        let buckets = [| 1; 2; 8; 64 |].(bi) in
        let wheel = Event_queue.create ~width ~buckets () in
        let reference = Ref_queue.create () in
        let next_id = ref 0 in
        (* The wheel re-anchors at the first add into an empty queue. *)
        let anchor = ref 0. in
        let ok = ref true in
        let add time p =
          if Ref_queue.size reference = 0 then anchor := time;
          Event_queue.add wheel ~time ~prio:p !next_id;
          Ref_queue.add reference ~time ~prio:p !next_id;
          incr next_id
        in
        List.iter
          (fun op ->
            match op with
            | `Add (tm, p) -> add (float_of_int tm *. 0.25) p
            | `Edge (k, d, p) ->
              let edge = !anchor +. (float_of_int k *. width) in
              add (List.nth (around edge) (d + 1)) p
            | `Pop ->
              if Event_queue.pop wheel <> Ref_queue.pop reference then
                ok := false)
          ops;
        !ok
        && Event_queue.size wheel = Ref_queue.size reference
        && drain_both wheel reference);
    qcheck ~count:300 ~name:"wheel pop_if_before agrees with heap"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 80)
             (pair (int_range 0 40) (int_range 0 1)))
          (list_size (int_range 1 40) (int_range 0 45)))
      (fun (adds, cuts) ->
        let wheel = Event_queue.create ~width:0.5 ~buckets:4 () in
        let reference = Ref_queue.create () in
        List.iteri
          (fun i (tm, prio) ->
            let time = float_of_int tm in
            Event_queue.add wheel ~time ~prio i;
            Ref_queue.add reference ~time ~prio i)
          adds;
        List.for_all
          (fun cut ->
            let until = float_of_int cut in
            Event_queue.pop_if_before wheel ~until
            = Ref_queue.pop_if_before reference ~until)
          cuts
        && drain_both wheel reference);
    t "overflow promotes in order across the horizon" (fun () ->
        let q =
          Event_queue.create ~width:1.0 ~buckets:4 ()
        in
        (* Horizon is 4: times 0..40 force most adds through the overflow
           heap and back out via promotion as the epoch advances. *)
        let times = [ 17.; 3.; 40.; 0.5; 22.; 22.; 8.; 39.5; 4. ] in
        List.iteri
          (fun i time -> Event_queue.add q ~time ~prio:0 i)
          times;
        let popped = ref [] in
        let rec go () =
          match Event_queue.pop q with
          | Some (time, _) ->
            popped := time :: !popped;
            go ()
          | None -> ()
        in
        go ();
        check_true "sorted"
          (List.rev !popped = List.sort compare times));
    t "iter_pop_until delivers in-window adds made by the callback" (fun () ->
        let q =
          Event_queue.create ~width:0.5 ~buckets:8 ()
        in
        Event_queue.add q ~time:1. ~prio:0 `Seed;
        let seen = ref [] in
        let n =
          Event_queue.iter_pop_until q ~until:3. ~f:(fun time payload ->
              seen := (time, payload) :: !seen;
              if payload = `Seed then begin
                Event_queue.add q ~time:2. ~prio:0 `Child;
                Event_queue.add q ~time:9. ~prio:0 `Late
              end)
        in
        check_int "delivered both in-window events" 2 n;
        check_true "order" (List.rev !seen = [ (1., `Seed); (2., `Child) ]);
        check_int "late event still queued" 1 (Event_queue.size q));
    t "bucket count rounds up to a power of two" (fun () ->
        (* Six buckets of width 1 become eight: times 0..7 each occupy a
           bucket of their own, and 8. is the first past the horizon. *)
        let q = Event_queue.create ~width:1. ~buckets:6 () in
        for i = 0 to 8 do
          Event_queue.add q ~time:(float_of_int i) ~prio:0 i
        done;
        check_int "eight buckets" 8 (Event_queue.occupancy q);
        check_int "size" 9 (Event_queue.size q));
    t "rejects out-of-range prio" (fun () ->
        check_raises_invalid "negative" (fun () ->
            Event_queue.add (Event_queue.create ()) ~time:1. ~prio:(-1) ());
        check_raises_invalid "huge" (fun () ->
            Event_queue.add (Event_queue.create ()) ~time:1. ~prio:(1 lsl 20)
              ()));
    t "rejects bad wheel geometry" (fun () ->
        check_raises_invalid "zero width" (fun () ->
            ignore
              (Event_queue.create ~width:0. ~buckets:4 ()
                : unit Event_queue.t));
        check_raises_invalid "no buckets" (fun () ->
            ignore
              (Event_queue.create ~width:1. ~buckets:0 ()
                : unit Event_queue.t)));
    t "expected capacity hint is behaviour-neutral" (fun () ->
        let a = Event_queue.create ~expected:4096 () in
        let b = Event_queue.create () in
        for i = 0 to 99 do
          let time = float_of_int ((i * 37) mod 19) in
          Event_queue.add a ~time ~prio:(i land 1) i;
          Event_queue.add b ~time ~prio:(i land 1) i
        done;
        let rec drain q acc =
          match Event_queue.pop q with
          | Some e -> drain q (e :: acc)
          | None -> List.rev acc
        in
        check_true "same drain" (drain a [] = drain b []));
  ]

(* [occupancy] counts non-empty wheel buckets; events parked in the
   overflow heap occupy none. *)
let occupancy_tests =
  let occ = Event_queue.occupancy in
  [
    t "wheel occupancy follows buckets filling and emptying" (fun () ->
        let q =
          Event_queue.create ~width:1. ~buckets:8 ()
        in
        check_int "empty" 0 (occ q);
        (* The first add anchors base = 0.5: logical bucket k covers
           [0.5 + k, 1.5 + k), the horizon ends at 8.5. *)
        Event_queue.add q ~time:0.5 ~prio:0 0;
        check_int "bucket 0" 1 (occ q);
        Event_queue.add q ~time:0.7 ~prio:0 1;
        check_int "shared bucket 0" 1 (occ q);
        Event_queue.add q ~time:2.5 ~prio:0 2;
        check_int "bucket 2" 2 (occ q);
        Event_queue.add q ~time:3.0 ~prio:0 3;
        check_int "shared bucket 2" 2 (occ q);
        Event_queue.add q ~time:7.9 ~prio:0 4;
        check_int "bucket 7" 3 (occ q);
        Event_queue.add q ~time:8.5 ~prio:0 5;
        Event_queue.add q ~time:20. ~prio:0 6;
        check_int "overflow is not counted" 3 (occ q);
        check_int "size counts overflow" 7 (Event_queue.size q);
        ignore (Event_queue.pop q);
        check_int "bucket 0 still holds 0.7" 3 (occ q);
        ignore (Event_queue.pop q);
        check_int "pop empties bucket 0" 2 (occ q);
        (* Advancing to bucket 2 moves the horizon to 10.5, promoting 8.5
           into logical bucket 8 (physical 0); 20. stays in overflow. *)
        check_true "pops 2.5" (Event_queue.pop q = Some (2.5, 2));
        check_int "promotion fills physical bucket 0" 3 (occ q);
        check_int "iter_pop_until stops at 7.9" 1
          (Event_queue.iter_pop_until q ~until:3. ~f:(fun _ _ -> ()));
        check_int "iter_pop_until empties bucket 2" 2 (occ q);
        let seen = ref [] in
        check_int "drain" 3
          (Event_queue.iter_pop_until q ~until:100. ~f:(fun _ _ ->
               seen := occ q :: !seen));
        (* 7.9 leaves 8.5 behind; 20. restarts the wheel from overflow and
           is popped at once. *)
        check_true "occupancy seen by each callback"
          (List.rev !seen = [ 1; 0; 0 ]);
        check_int "drained" 0 (occ q);
        (* An add to the empty queue re-anchors at base = 100. *)
        Event_queue.add q ~time:100. ~prio:0 7;
        Event_queue.add q ~time:100.5 ~prio:1 8;
        check_int "re-anchored into bucket 0" 1 (occ q);
        Event_queue.add q ~time:103.2 ~prio:0 9;
        check_int "bucket 3" 2 (occ q);
        Event_queue.add q ~time:108. ~prio:0 10;
        check_int "beyond the new horizon" 2 (occ q);
        while Event_queue.pop q <> None do () done;
        check_int "empty again" 0 (occ q));
    t "horizon-edge event occupies no bucket until promoted" (fun () ->
        (* X divides to bucket 4860 = 764 + 4096: with the epoch at Y's
           bucket 764 it stays in the overflow, so popping Y empties
           bucket 764 and only Z's bucket 800 stays occupied. *)
        let w = 1. /. 12. in
        let q = Event_queue.create ~width:w ~buckets:4096 () in
        List.iter
          (fun (time, v) -> Event_queue.add q ~time ~prio:0 v)
          [ (0., 0); (764.5 *. w, 1); (404.99999999999994, 2); (800. *. w, 3) ];
        check_int "A, Y and Z buckets" 3 (occ q);
        check_true "pops A" (Event_queue.pop q = Some (0., 0));
        check_true "pops Y" (Event_queue.pop q = Some (764.5 *. w, 1));
        check_int "only Z's bucket" 1 (occ q);
        check_int "X waits in overflow" 2 (Event_queue.size q);
        check_true "pops Z" (Event_queue.pop q = Some (800. *. w, 3));
        check_int "X promoted" 1 (occ q);
        check_true "pops X" (Event_queue.pop q = Some (404.99999999999994, 2));
        check_int "empty" 0 (occ q));
    qcheck ~count:300
      ~name:"wheel occupancy stays within min size buckets, 0 when empty"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 120)
             (frequency
                [
                  (4, map (fun tm -> `Add tm) (int_range 0 80));
                  (2, pure `Pop);
                  (1, map (fun u -> `Until u) (int_range 0 80));
                ]))
          (int_range 0 3))
      (fun (ops, bi) ->
        let buckets = [| 1; 2; 8; 16 |].(bi) in
        let q =
          Event_queue.create ~width:0.5 ~buckets ()
        in
        let holds () =
          let o = occ q and n = Event_queue.size q in
          o >= 0 && o <= min n buckets && (n > 0 || o = 0)
        in
        let ok = ref (holds ()) in
        let base = ref 0. in
        List.iter
          (fun op ->
            (match op with
            | `Add tm ->
              Event_queue.add q ~time:(!base +. (float_of_int tm *. 0.25))
                ~prio:(tm land 1) tm
            | `Pop -> (
              match Event_queue.pop q with
              | Some (time, _) -> base := time
              | None -> ())
            | `Until u ->
              let until = !base +. (float_of_int u *. 0.25) in
              ignore
                (Event_queue.iter_pop_until q ~until ~f:(fun time _ ->
                     base := time;
                     if not (holds ()) then ok := false)));
            if not (holds ()) then ok := false)
          ops;
        !ok);
    t "E1 queue gauges are pinned" (fun () ->
        (* Gauges are absent from canonical traces; these are the quick
           cells' high-water marks. *)
        let module Reg = Csync_obs.Registry in
        let reg = Reg.create () in
        let e1 =
          match Csync_harness.Registry.find "E1" with
          | Some e -> e
          | None -> Alcotest.fail "E1 not registered"
        in
        Reg.install reg;
        Fun.protect ~finally:Reg.clear_installed (fun () ->
            ignore
              (Format.asprintf "%a"
                 (fun ppf () ->
                   Csync_harness.Registry.render_list ~jobs:1 ppf ~quick:true
                     [ e1 ])
                 ()));
        let gauges base =
          List.filter_map
            (function
              | Csync_obs.Record.Gauge (name, v)
                when snd (Csync_obs.Record.split_name name) = base ->
                Some v
              | _ -> None)
            (Reg.records reg)
        in
        check_true "occupancy high-water marks"
          (gauges "sim.queue_occupancy_hw" = [ 14.; 15. ]);
        check_true "depth high-water marks"
          (gauges "sim.queue_depth_hw" = [ 48.; 48. ]));
  ]

(* The buffer's one per-message record is the installed monitor's
   provenance ring: one entry per scheduled copy, after tampering. *)
let provenance_tests =
  let module MB = Csync_net.Message_buffer in
  let buffer () =
    MB.create ~n:2 ~delay:(Csync_net.Delay.constant 0.005)
      ~engine:(Engine.create ()) ()
  in
  [
    t "delay provenance off by default" (fun () ->
        Mon.clear_installed ();
        let buf = buffer () in
        MB.send buf ~src:0 ~dst:1 42.;
        let provs = ref [] in
        Engine.run_until (MB.engine buf) ~until:1. ~handler:(fun _ d ->
            provs := d.MB.prov :: !provs);
        check_true "only null ids" (!provs = [ Mon.Prov.null ]));
    t "message buffer records provenance on the monitor" (fun () ->
        let mon = Mon.create ~checks:[] () in
        Mon.install mon;
        Fun.protect ~finally:Mon.clear_installed @@ fun () ->
        let buf = buffer () in
        MB.send buf ~src:0 ~dst:1 42.;
        MB.broadcast buf ~src:1 7.;
        (* A tampered send scheduling two copies, the second late. *)
        MB.set_tamper buf (fun ~now:_ ~src:_ ~dst:_ m ->
            [ { MB.payload = m; extra_delay = 0. };
              { MB.payload = m; extra_delay = 0.002 } ]);
        MB.send buf ~src:0 ~dst:1 9.;
        match Mon.Prov.recent mon ~below:5 5 with
        | [ a; b; c; d; e ] ->
          check_int "first src" 0 a.Mon.Prov.src;
          check_float "modelled delay" 0.005 a.Mon.Prov.delay;
          check_int "bcast to 0" 0 b.Mon.Prov.dst;
          check_int "bcast to 1 (self)" 1 c.Mon.Prov.dst;
          check_float "first copy" 0.005 d.Mon.Prov.delay;
          check_float "delay includes the extra" 0.007 e.Mon.Prov.delay;
          check_int "ids in send order" 4 e.Mon.Prov.id
        | l -> Alcotest.failf "expected 5 records, got %d" (List.length l));
    t "recent walks down and stops at evicted ids" (fun () ->
        let mon = Mon.create ~checks:[] () in
        let cap = 65536 and extra = 3 in
        for i = 0 to cap + extra - 1 do
          ignore
            (Mon.Prov.mint mon ~src:0 ~dst:1 ~sent:(float_of_int i) ~delay:0.)
        done;
        let ids k =
          List.map
            (fun (e : Mon.Prov.entry) -> e.id)
            (Mon.Prov.recent mon ~below:(cap + extra) k)
        in
        Alcotest.(check (list int)) "newest two" [ cap + 1; cap + 2 ] (ids 2);
        let all = ids max_int in
        check_int "the ring's worth" cap (List.length all);
        check_int "oldest retained" extra (List.hd all);
        Alcotest.(check (list int)) "k = 0" [] (ids 0));
  ]

let alloc_tests =
  [
    t "engine add+pop allocates <= 4.5 words/event" (fun () ->
        (* The bench's engine kernel: batches of 1024 adds drained through
           the fused iterator, once with ascending times (the insertion
           sort) and once shuffled within each batch (the quicksort).  The
           floor is the two float boxes at the API boundary, the caller's
           [~time] and the callback's [time]: 4 words. *)
        let batch = 1024 and batches = 16 in
        let per_event offsets =
          let q = Event_queue.create ~expected:batch () in
          let run () =
            for b = 0 to batches - 1 do
              let base = float_of_int b in
              for i = 0 to batch - 1 do
                Event_queue.add q ~time:(base +. offsets.(i)) ~prio:0 i
              done;
              ignore
                (Event_queue.iter_pop_until q ~until:Float.infinity
                   ~f:(fun _ _ -> ()))
            done
          in
          run ();
          allocated_words run /. float_of_int (batch * batches)
        in
        let ascending = Array.init batch (fun i -> float_of_int i /. 1024.) in
        let shuffled = Array.copy ascending in
        Rng.shuffle (Rng.create 5) shuffled;
        List.iter
          (fun (what, offsets) ->
            let w = per_event offsets in
            if not (w <= 4.5) then
              Alcotest.failf "%s: %.2f words per event" what w)
          [ ("ascending", ascending); ("shuffled", shuffled) ]);
  ]

(* The horizon-edge tests hold the slots of three removed heap tests, so
   every later test keeps its index in the suite. *)
let suite =
  rng_tests @ heap_tests @ horizon_edge_tests @ heap_sort_tests
  @ queue_tests @ tie_break_tests @ wheel_tests @ occupancy_tests
  @ engine_tests @ provenance_tests @ alloc_tests
