(* Cross-cutting property tests: randomized invariants over the substrate
   and the algorithms, complementing the per-module unit suites. *)

module M = Csync_multiset
module Engine = Csync_sim.Engine
module Rng = Csync_sim.Rng
module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Smoothing = Csync_core.Smoothing
module Approx = Csync_core.Approx_agreement
module Marzullo = Csync_baselines.Marzullo
module Scenario = Csync_harness.Scenario
open Helpers

let p = params ()

let engine_props =
  [
    qcheck ~count:100 ~name:"engine delivers in nondecreasing time order"
      QCheck2.Gen.(list_size (int_range 1 100) (float_bound_inclusive 100.))
      (fun times ->
        let e = Engine.create () in
        List.iter (fun tm -> Engine.schedule e ~time:tm tm) times;
        let last = ref neg_infinity in
        let ok = ref true in
        ignore
          (Engine.drain e
             ~handler:(fun tm _ ->
               if tm < !last then ok := false;
               last := tm)
             ~max_events:1000);
        !ok);
    qcheck ~count:100 ~name:"engine delivers every scheduled event exactly once"
      QCheck2.Gen.(list_size (int_range 1 100) (float_bound_inclusive 100.))
      (fun times ->
        let e = Engine.create () in
        List.iteri (fun i tm -> Engine.schedule e ~time:tm i) times;
        let seen = Hashtbl.create 16 in
        ignore
          (Engine.drain e
             ~handler:(fun _ i -> Hashtbl.replace seen i ())
             ~max_events:1000);
        Hashtbl.length seen = List.length times);
  ]

let multiset_props =
  [
    qcheck ~name:"reduce yields a sub-multiset"
      QCheck2.Gen.(list_size (int_range 3 30) (float_bound_inclusive 10.))
      (fun l ->
        let u = M.of_list l in
        let r = M.reduce ~f:1 u in
        (* every element of r appears in u with at least its multiplicity *)
        List.for_all
          (fun x -> M.count (fun y -> y = x) r <= M.count (fun y -> y = x) u)
          (M.to_list r));
    qcheck ~name:"mid(reduce) lies within the original range"
      QCheck2.Gen.(list_size (int_range 3 30) (float_bound_inclusive 10.))
      (fun l ->
        let u = M.of_list l in
        let v = M.mid (M.reduce ~f:1 u) in
        M.min_elt u <= v && v <= M.max_elt u);
  ]

let params_props =
  [
    qcheck ~count:100 ~name:"p_min is monotone in beta"
      QCheck2.Gen.(pair (float_range 1e-4 1e-2) (float_range 1e-4 1e-2))
      (fun (b1, b2) ->
        let lo = Float.min b1 b2 and hi = Float.max b1 b2 in
        Params.p_min ~rho:1e-6 ~delta:1e-3 ~eps:1e-4 ~beta:lo
        <= Params.p_min ~rho:1e-6 ~delta:1e-3 ~eps:1e-4 ~beta:hi);
    qcheck ~count:100 ~name:"gamma exceeds beta (skew bound covers start skew)"
      QCheck2.Gen.(float_range 1e-4 1e-2)
      (fun beta ->
        let p =
          Params.unchecked ~n:7 ~f:2 ~rho:1e-6 ~delta:1e-3 ~eps:1e-4 ~beta
            ~big_p:0.5 ()
        in
        Params.gamma p > beta);
  ]

let marzullo_props =
  [
    qcheck ~count:200 ~name:"no sampled point beats best_interval's support"
      QCheck2.Gen.(
        list_size (int_range 1 10)
          (map
             (fun (a, b) -> (Float.min a b, Float.max a b))
             (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.))))
      (fun intervals ->
        let count, _ = Marzullo.best_interval intervals in
        let coverage x =
          List.length (List.filter (fun (lo, hi) -> lo <= x && x <= hi) intervals)
        in
        (* sample all endpoints: maxima occur there *)
        List.for_all
          (fun (lo, hi) -> coverage lo <= count && coverage hi <= count)
          intervals);
  ]

let smoothing_props =
  [
    qcheck ~count:100 ~name:"smoothed time is monotone for admissible jumps"
      QCheck2.Gen.(
        list_size (int_range 1 10)
          (pair (float_range 0.5 1.5) (float_range (-0.4) 0.4)))
      (fun jumps ->
        (* jumps: (gap to next jump, adjustment).  Gaps >= the slew interval
           (0.5) and |adj| < interval: the protocol's regime (one adjustment
           per round of length P, slewed over P, |ADJ| << P).  Overlapping
           negative slews may legitimately sum past the interval and lose
           monotonicity, which is why of_params slews over a full P. *)
        (* Walk the timeline forward, observing each jump as its instant
           passes and sampling in between - the module's intended usage
           (queries are only valid at or after the latest observation). *)
        let events =
          List.rev
            (snd
               (List.fold_left
                  (fun (at, evs) (gap, adj) ->
                    let at = at +. gap in
                    (at, (at, adj) :: evs))
                  (0., []) jumps))
        in
        let ok = ref true in
        let prev = ref neg_infinity in
        let s = ref (Smoothing.create ~slew_interval:0.5) in
        let corr = ref 0. in
        let pending = ref events in
        for i = 0 to 400 do
          let phys = float_of_int i /. 20. in
          (match !pending with
           | (at, adj) :: rest when at <= phys ->
             s := Smoothing.observe !s ~at_phys:at ~adj;
             corr := !corr +. adj;
             pending := rest
           | _ -> ());
          let now = Smoothing.time !s ~phys ~corr:!corr in
          if now < !prev -. 1e-12 then ok := false;
          prev := now
        done;
        !ok);
  ]

let approx_props =
  [
    qcheck ~count:100 ~name:"approximate agreement: validity + halving"
      QCheck2.Gen.(
        pair
          (list_size (int_range 5 5) (float_bound_inclusive 100.))
          (int_range 0 1000))
      (fun (initial, seed) ->
        let initial = Array.of_list initial in
        let rng = Rng.create seed in
        let adversary ~round:_ ~faulty:_ ~target:_ =
          if Rng.bool rng then Some (Rng.uniform rng ~lo:(-200.) ~hi:200.)
          else None
        in
        let r = Approx.run ~n:7 ~f:2 ~rounds:6 ~adversary ~initial () in
        let lo = Array.fold_left Float.min initial.(0) initial in
        let hi = Array.fold_left Float.max initial.(0) initial in
        let diam0 = hi -. lo in
        let validity = Array.for_all (fun v -> lo <= v && v <= hi) r.Approx.final in
        let halving =
          List.for_all2
            (fun d prev -> d <= (prev /. 2.) +. 1e-9)
            r.Approx.diameters
            (diam0 :: List.filteri (fun i _ -> i < 5) r.Approx.diameters)
        in
        validity && halving);
  ]

(* Liveness: honest maintenance runs never wedge, whatever the seed and
   delay/drift profile. *)
let liveness_props =
  [
    qcheck ~count:12 ~name:"honest runs complete every round (no wedging)"
      QCheck2.Gen.(
        triple (int_range 0 10_000) (int_range 0 2) (int_range 0 2))
      (fun (seed, delay_i, clock_i) ->
        let delay_kind =
          List.nth
            [ Scenario.Constant_delay; Scenario.Uniform_delay; Scenario.Extreme_delay ]
            delay_i
        in
        let clock_kind =
          List.nth
            [ Scenario.Perfect; Scenario.Drifting; Scenario.Adversarial_drift ]
            clock_i
        in
        let rounds = 8 in
        let r =
          Scenario.run
            { (Scenario.default ~seed p) with Scenario.rounds; delay_kind; clock_kind }
        in
        List.for_all
          (fun (_, records) -> List.length records >= rounds)
          r.Scenario.histories);
  ]

(* Maintenance.average_heard against the paper's fixed-f formula over an
   ARR whose silent entries hold the sentinel: bit-identical while at most
   f senders are silent, and inside the heard range beyond that. *)
let average_heard_props =
  [
    qcheck ~count:300
      ~name:"average_heard: paper formula up to f silent, heard range beyond"
      QCheck2.Gen.(
        int_range 4 16 >>= fun n ->
        quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 2)
          (array_size (return n) (float_range (-1e-3) 1e-3)))
      (fun (silent, shift, combine, values) ->
        let n = Array.length values in
        let f = (n - 1) / 3 in
        let averaging =
          List.nth
            [ Csync_core.Averaging.midpoint; Csync_core.Averaging.mean;
              Csync_core.Averaging.median ]
            combine
        in
        let cfg =
          Maintenance.config ~averaging (Csync_harness.Defaults.base ~n ~f ())
        in
        let heard = Array.init n (fun q -> (q - shift + n) mod n >= silent) in
        let arr =
          Array.mapi
            (fun q v -> if heard.(q) then v else Maintenance.arr_sentinel)
            values
        in
        let av = Maintenance.average_heard cfg ~t:0. ~arr ~heard in
        if silent <= f then
          Int64.equal (Int64.bits_of_float av)
            (Int64.bits_of_float
               (Csync_core.Averaging.apply averaging ~f (M.of_array arr)))
        else
          let heard_values =
            List.filteri (fun q _ -> heard.(q)) (Array.to_list values)
          in
          List.fold_left Float.min infinity heard_values <= av
          && av <= List.fold_left Float.max neg_infinity heard_values);
  ]

let suite =
  engine_props @ multiset_props @ params_props @ marzullo_props
  @ smoothing_props @ approx_props @ liveness_props @ average_heard_props
