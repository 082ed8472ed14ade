(* Unit tests for the core algorithm modules, driving the automata directly
   through their transition functions (deterministic, no cluster needed)
   plus small end-to-end cluster runs. *)

module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster
module Hw = Csync_clock.Hardware_clock
module Drift = Csync_clock.Drift
module Delay = Csync_net.Delay
module Params = Csync_core.Params
module Averaging = Csync_core.Averaging
module Bounds = Csync_core.Bounds
module Maintenance = Csync_core.Maintenance
module Reintegration = Csync_core.Reintegration
module M = Csync_multiset
open Helpers

let t name f = Alcotest.test_case name `Quick f

let averaging_tests =
  [
    t "midpoint of reduce" (fun () ->
        let u = M.of_list [ -100.; 1.; 2.; 3.; 4.; 5.; 100. ] in
        check_float "mid" 3. (Averaging.apply Averaging.midpoint ~f:1 u));
    t "mean of reduce" (fun () ->
        let u = M.of_list [ -100.; 1.; 2.; 3.; 4.; 5.; 100. ] in
        check_float "mean" 3. (Averaging.apply Averaging.mean ~f:1 u));
    t "median of reduce" (fun () ->
        let u = M.of_list [ -100.; 1.; 2.; 4.; 4.; 5.; 100. ] in
        check_float "median" 4. (Averaging.apply Averaging.median ~f:1 u));
    t "unprotected sees the outliers" (fun () ->
        let u = M.of_list [ -100.; 0.; 100. ] in
        check_float "mid" 0. (Averaging.apply (Averaging.unprotected Averaging.Midpoint) ~f:1 u);
        check_float "mean" 0. (Averaging.apply (Averaging.unprotected Averaging.Mean) ~f:1 u);
        let skewed = M.of_list [ 0.; 1.; 100. ] in
        check_float "mean dragged" 33.666666666666664
          (Averaging.apply (Averaging.unprotected Averaging.Mean) ~f:1 skewed));
    t "convergence rates" (fun () ->
        check_float "midpoint" 0.5 (Averaging.convergence_rate Averaging.midpoint ~n:7 ~f:2);
        check_float "mean" (2. /. 3.) (Averaging.convergence_rate Averaging.mean ~n:7 ~f:2);
        check_float "mean large n" (2. /. 14.)
          (Averaging.convergence_rate Averaging.mean ~n:18 ~f:2);
        check_float "unprotected" 1.
          (Averaging.convergence_rate (Averaging.unprotected Averaging.Mean) ~n:7 ~f:2));
    t "names" (fun () ->
        Alcotest.(check string) "mid" "midpoint" (Averaging.name Averaging.midpoint);
        Alcotest.(check string) "unprot" "mean-unprotected"
          (Averaging.name (Averaging.unprotected Averaging.Mean)));
  ]

let bounds_tests =
  [
    t "maintenance recurrence at rho=0 is b/2 + 2eps" (fun () ->
        check_float "rec" ((0.01 /. 2.) +. 2e-4)
          (Bounds.maintenance_recurrence ~rho:0. ~delta:1e-3 ~eps:1e-4
             ~big_p:0.5 0.01));
    t "maintenance fixpoint at rho=0 is 4 eps" (fun () ->
        check_float_tol 1e-12 "fix" 4e-4
          (Bounds.maintenance_fixpoint ~rho:0. ~delta:1e-3 ~eps:1e-4 ~big_p:0.5));
    t "k-exchange beta decreases in k toward 4eps+2rhoP" (fun () ->
        let b k = Bounds.k_exchange_beta ~rho:1e-5 ~eps:1e-5 ~big_p:5. ~k in
        check_true "monotone" (b 1 > b 2 && b 2 > b 3 && b 3 > b 4);
        check_float_tol 1e-12 "k=1 is 4eps+4rhoP" (4e-5 +. (4. *. 1e-5 *. 5.)) (b 1);
        check_true "limit" (b 8 < (4e-5 +. (2.1 *. 1e-5 *. 5.))));
    t "k-exchange rejects k < 1" (fun () ->
        check_raises_invalid "k" (fun () ->
            ignore (Bounds.k_exchange_beta ~rho:1e-5 ~eps:1e-5 ~big_p:5. ~k:0)));
    t "mean fixpoint approaches 2 eps for large n" (fun () ->
        let fp n = Bounds.mean_fixpoint ~n ~f:2 ~rho:0. ~eps:1e-4 ~big_p:0.5 in
        check_true "decreasing" (fp 7 > fp 30);
        check_true "toward 2eps" (fp 1000 < 2.1e-4));
    t "establishment recurrence and fixpoint" (fun () ->
        let fp = Bounds.establishment_fixpoint ~rho:0. ~delta:1e-3 ~eps:1e-4 in
        check_float_tol 1e-12 "4eps" 4e-4 fp;
        check_float "rec" ((10. /. 2.) +. 2e-4)
          (Bounds.establishment_recurrence ~rho:0. ~delta:1e-3 ~eps:1e-4 10.));
    t "establishment_rounds_to" (fun () ->
        (match Bounds.establishment_rounds_to ~rho:0. ~delta:1e-3 ~eps:1e-4 ~from:10. ~target:0.01 with
         | Some k -> check_true "about log2(1000)" (k >= 9 && k <= 13)
         | None -> Alcotest.fail "should converge");
        check_true "unreachable"
          (Bounds.establishment_rounds_to ~rho:0. ~delta:1e-3 ~eps:1e-4 ~from:10.
             ~target:1e-5
           = None));
    t "section 10 estimates" (fun () ->
        check_float "wl" 4e-4 (Bounds.wl_agreement_estimate ~eps:1e-4);
        check_float "lm" (2. *. 7. *. 1e-4) (Bounds.lm_agreement_estimate ~n:7 ~eps:1e-4);
        check_float "lm adj" (15. *. 1e-4) (Bounds.lm_adjustment_estimate ~n:7 ~eps:1e-4);
        check_float "st" 1.1e-3 (Bounds.st_agreement_estimate ~delta:1e-3 ~eps:1e-4);
        check_float "hssd adj" (3. *. 1.1e-3)
          (Bounds.hssd_adjustment_estimate ~f:2 ~delta:1e-3 ~eps:1e-4);
        check_int "msgs" 49 (Bounds.messages_per_round ~n:7));
  ]

(* Drive the maintenance transition function by hand. *)
let p = params ()

let cfg = Maintenance.config p

let maintenance_unit_tests =
  [
    t "config validation" (fun () ->
        check_raises_invalid "exchanges" (fun () ->
            ignore (Maintenance.config ~exchanges:0 p));
        check_raises_invalid "stagger" (fun () ->
            ignore (Maintenance.config ~stagger:(-1.) p)));
    t "start broadcasts T0 and arms the update timer" (fun () ->
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s, actions =
          auto.Automaton.handle ~self:0 ~phys:p.Params.t0 Automaton.Start
            auto.Automaton.initial
        in
        check_true "update phase" (Maintenance.current_phase s = Maintenance.Update);
        match actions with
        | [ Automaton.Broadcast v; Automaton.Set_timer_logical u ] ->
          check_float "broadcasts T0" p.Params.t0 v;
          check_float_tol 1e-12 "U0" (Params.update_time p 0) u
        | _ -> Alcotest.fail "expected broadcast + timer");
    t "messages record stamped local arrival times" (fun () ->
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:1.5 (Automaton.Message (3, 0.))
            auto.Automaton.initial
        in
        check_float "arr[3]" 1.5 (Maintenance.arr s).(3);
        check_float "others untouched" Maintenance.arr_sentinel (Maintenance.arr s).(0));
    t "arr snapshot survives later messages" (fun () ->
        (* [handle] writes ARR in place; the accessors hand out copies. *)
        let deliver ~phys src s =
          fst (Maintenance.handle cfg ~self:0 ~phys (Automaton.Message (src, 0.)) s)
        in
        let s1 = deliver ~phys:1.5 3 (Maintenance.initial_state cfg ~self:0) in
        let arr = Maintenance.arr s1 and fresh = Maintenance.fresh s1 in
        let s2 = deliver ~phys:2.5 4 s1 in
        check_float "snapshot arr[4]" Maintenance.arr_sentinel arr.(4);
        check_true "snapshot fresh[4]" (not fresh.(4));
        check_float "snapshot arr[3]" 1.5 arr.(3);
        check_float "live arr[4]" 2.5 (Maintenance.arr s2).(4));
    t "update computes ADJ = T + delta - mid(reduce(ARR))" (fun () ->
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s = auto.Automaton.initial in
        (* Broadcast first. *)
        let s, _ = auto.Automaton.handle ~self:0 ~phys:0. Automaton.Start s in
        (* Feed 7 arrivals all at local delta + 2e-4 (everyone 0.2 ms late). *)
        let s =
          List.fold_left
            (fun s q ->
              fst
                (auto.Automaton.handle ~self:0 ~phys:(p.Params.delta +. 2e-4)
                   (Automaton.Message (q, 0.)) s))
            s
            [ 0; 1; 2; 3; 4; 5; 6 ]
        in
        let s, actions =
          auto.Automaton.handle ~self:0 ~phys:(Params.update_time p 0)
            (Automaton.Timer (Params.update_time p 0)) s
        in
        (* AV = delta + 2e-4, so ADJ = T0 + delta - AV = -2e-4. *)
        check_float_tol 1e-12 "corr" (-2e-4) (Maintenance.corr s);
        check_true "back to bcast" (Maintenance.current_phase s = Maintenance.Bcast);
        check_float_tol 1e-12 "T advanced" p.Params.big_p (Maintenance.current_t s);
        check_int "round" 1 (Maintenance.rounds_completed s);
        (match Maintenance.history s with
         | [ r ] ->
           check_float_tol 1e-12 "adj" (-2e-4) r.Maintenance.adj;
           check_int "arrivals" 7 r.Maintenance.arrivals
         | _ -> Alcotest.fail "one history record");
        match actions with
        | [ Automaton.Set_timer_logical next ] ->
          check_float_tol 1e-12 "next bcast" p.Params.big_p next
        | _ -> Alcotest.fail "expected timer");
    t "silent senders are reduced away" (fun () ->
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s = auto.Automaton.initial in
        let s, _ = auto.Automaton.handle ~self:0 ~phys:0. Automaton.Start s in
        (* Only 5 of 7 arrive (f = 2 silent). *)
        let s =
          List.fold_left
            (fun s q ->
              fst
                (auto.Automaton.handle ~self:0 ~phys:p.Params.delta
                   (Automaton.Message (q, 0.)) s))
            s [ 0; 1; 2; 3; 4 ]
        in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:(Params.update_time p 0)
            (Automaton.Timer (Params.update_time p 0)) s
        in
        (* Sentinels fall in the f lowest; ADJ = 0 exactly. *)
        check_float_tol 1e-12 "corr 0" 0. (Maintenance.corr s));
    t "stagger delays the broadcast to T + p sigma" (fun () ->
        let cfg = Maintenance.config ~stagger:0.01 p in
        let auto = Maintenance.automaton ~self_hint:3 cfg in
        let s, actions =
          auto.Automaton.handle ~self:3 ~phys:p.Params.t0 Automaton.Start
            auto.Automaton.initial
        in
        check_true "still bcast phase" (Maintenance.current_phase s = Maintenance.Bcast);
        match actions with
        | [ Automaton.Set_timer_logical at ] -> check_float "slot" 0.03 at
        | _ -> Alcotest.fail "expected wait for stagger slot");
    t "stagger compensates arrival stamps by sender slot" (fun () ->
        let cfg = Maintenance.config ~stagger:0.01 p in
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:2. (Automaton.Message (2, 0.))
            auto.Automaton.initial
        in
        check_float "compensated" (2. -. 0.02) (Maintenance.arr s).(2));
    t "k exchanges advance T by the exchange spacing then rest" (fun () ->
        let big = Params.make_exn ~n:7 ~f:2 ~rho:1e-6 ~delta:1e-3 ~eps:1e-4
            ~beta:4.5e-4 ~big_p:0.5 () in
        let cfg = Maintenance.config ~exchanges:2 big in
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s = auto.Automaton.initial in
        let s, _ = auto.Automaton.handle ~self:0 ~phys:0. Automaton.Start s in
        let feed s =
          List.fold_left
            (fun s q ->
              fst
                (auto.Automaton.handle ~self:0
                   ~phys:(Maintenance.current_t s +. big.Params.delta)
                   (Automaton.Message (q, 0.)) s))
            s [ 0; 1; 2; 3; 4; 5; 6 ]
        in
        (* The update only accepts the timer armed at broadcast (tag =
           T + wait window). *)
        let update_tag s = Maintenance.current_t s +. (Params.wait_window big) in
        let s = feed s in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:(Params.update_time big 0)
            (Automaton.Timer (update_tag s)) s
        in
        check_int "still round 0" 0 (Maintenance.rounds_completed s);
        let spacing = Maintenance.current_t s in
        check_true "spacing positive and small" (spacing > 0. && spacing < 0.1);
        (* Second exchange completes the round and lands on T0 + P. *)
        let s, _ = auto.Automaton.handle ~self:0 ~phys:spacing (Automaton.Timer 0.) s in
        let s = feed s in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:(spacing +. 1e-2)
            (Automaton.Timer (update_tag s)) s
        in
        check_int "round done" 1 (Maintenance.rounds_completed s);
        check_float_tol 1e-12 "T = P" big.Params.big_p (Maintenance.current_t s));
    t "state_for_rejoin resumes cleanly" (fun () ->
        let s = Maintenance.state_for_rejoin cfg ~corr:0.25 ~next_t:5. ~round:10 in
        check_float "corr" 0.25 (Maintenance.corr s);
        check_float "t" 5. (Maintenance.current_t s);
        check_int "round" 10 (Maintenance.rounds_completed s);
        check_true "bcast" (Maintenance.current_phase s = Maintenance.Bcast));
  ]

(* A tiny end-to-end run with perfect clocks and constant delays: ADJ must
   be exactly 0 after the first round and skew exactly the initial offsets. *)
let maintenance_e2e_tests =
  [
    t "perfect clocks, constant delay: zero adjustments" (fun () ->
        let n = p.Params.n in
        let readers = ref [] in
        let procs =
          Array.init n (fun pid ->
              let proc, reader = Maintenance.create ~self:pid cfg in
              readers := reader :: !readers;
              proc)
        in
        let clocks = Array.init n (fun _ -> Hw.create Drift.perfect) in
        let cluster =
          Cluster.create ~clocks ~delay:(Delay.constant p.Params.delta) ~procs ()
        in
        Cluster.schedule_starts_at_logical cluster ~t0:p.Params.t0
          ~corrs:(Array.make n 0.);
        Cluster.run_until cluster (3.2 *. p.Params.big_p);
        List.iter
          (fun reader ->
            let s = reader () in
            check_true "3 rounds" (Maintenance.rounds_completed s >= 3);
            List.iter
              (fun (r : Maintenance.round_record) ->
                check_float_tol 1e-9 "adj 0" 0. r.Maintenance.adj)
              (Maintenance.history s))
          !readers);
    t "known offsets are averaged out in one round" (fun () ->
        (* One clock 0.3 ms behind (within beta; negative so its START at
           c_p(T0) stays at nonnegative real time), perfect rates, constant
           delay: after one update everyone sits at the reduced midpoint. *)
        let n = p.Params.n in
        let offs = [| 0.; -3e-4; 0.; 0.; 0.; 0.; 0. |] in
        let readers = ref [] in
        let procs =
          Array.init n (fun pid ->
              let proc, reader = Maintenance.create ~self:pid cfg in
              readers := (pid, reader) :: !readers;
              proc)
        in
        let clocks = Array.init n (fun pid -> Hw.create ~offset:offs.(pid) Drift.perfect) in
        let cluster =
          Cluster.create ~clocks ~delay:(Delay.constant p.Params.delta) ~procs ()
        in
        Cluster.schedule_starts_at_logical cluster ~t0:p.Params.t0
          ~corrs:(Array.make n 0.);
        Cluster.run_until cluster (1.5 *. p.Params.big_p);
        (* All local times must now agree to ~nanoseconds. *)
        let locals =
          List.map (fun pid -> Cluster.local_time cluster pid) (List.init n Fun.id)
        in
        let lo = List.fold_left Float.min (List.hd locals) locals in
        let hi = List.fold_left Float.max (List.hd locals) locals in
        check_true "converged" (hi -. lo < 1e-7));
  ]

let reintegration_tests =
  [
    t "config validation" (fun () ->
        check_raises_invalid "stagger" (fun () ->
            ignore (Reintegration.config (Maintenance.config ~stagger:0.01 p)));
        check_raises_invalid "exchanges" (fun () ->
            ignore (Reintegration.config (Maintenance.config ~exchanges:2 p))));
    t "needs f+1 distinct senders to pick a target" (fun () ->
        let rcfg = Reintegration.config ~initial_corr:0.5 cfg in
        let auto = Reintegration.automaton ~self_hint:5 rcfg in
        let s = auto.Automaton.initial in
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0. Automaton.Start s in
        (* One lying sender repeating a bogus round value: no target. *)
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0.1 (Automaton.Message (6, 99.)) s in
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0.2 (Automaton.Message (6, 99.)) s in
        check_true "still observing" (Reintegration.mode s = Reintegration.Observing);
        (* f+1 = 3 distinct honest senders naming round value 1.0. *)
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0.3 (Automaton.Message (0, 1.0)) s in
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0.3 (Automaton.Message (1, 1.0)) s in
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0.3 (Automaton.Message (2, 1.0)) s in
        check_true "collecting" (Reintegration.mode s = Reintegration.Collecting);
        check_true "target is successor round"
          (Reintegration.target s = Some (1.0 +. p.Params.big_p)));
    t "collects the target round, averages, and joins" (fun () ->
        let rcfg = Reintegration.config ~initial_corr:0.5 cfg in
        let auto = Reintegration.automaton ~self_hint:5 rcfg in
        let s = auto.Automaton.initial in
        let s, _ = auto.Automaton.handle ~self:5 ~phys:0. Automaton.Start s in
        let feed s phys (q, v) =
          fst (auto.Automaton.handle ~self:5 ~phys (Automaton.Message (q, v)) s)
        in
        let s = feed s 0.30 (0, 1.0) in
        let s = feed s 0.30 (1, 1.0) in
        let s = feed s 0.30 (2, 1.0) in
        (* Target = 1.5.  Deliver the target round's messages: arrivals at
           phys 0.9 + delta-ish; the collect deadline is anchored on the
           (f+1)-th distinct sender (here the third, at 0.9012) and the
           timer then fires. *)
        let target = 1.0 +. p.Params.big_p in
        let s = feed s 0.901 (0, target) in
        let s = feed s 0.9011 (1, target) in
        let s = feed s 0.9012 (2, target) in
        let s = feed s 0.9013 (3, target) in
        let s = feed s 0.9014 (4, target) in
        let deadline = 0.9012 +. Reintegration.collect_window p in
        let s, actions =
          auto.Automaton.handle ~self:5 ~phys:deadline (Automaton.Timer deadline) s
        in
        check_true "joined" (Reintegration.mode s = Reintegration.Joined);
        check_true "join round recorded" (Reintegration.join_round s <> None);
        (* The arbitrary initial correction cancels: the final correction
           is target + delta - (real arrival time), independent of 0.5. *)
        check_true "corr corrected"
          (Float.abs (Reintegration.corr s -. (target +. p.Params.delta -. 0.901))
           < 1e-3);
        match actions with
        | [ Automaton.Set_timer_logical next ] ->
          check_float_tol 1e-9 "next round timer" (target +. p.Params.big_p) next
        | _ -> Alcotest.fail "expected join timer");
  ]

(* Three of n = 7 senders are never heard, one more than f = 2: the
   reduction alone would keep one ARR sentinel and move CORR by ~5e11 s.
   The four heard arrivals sit at T + delta + [lateness]. *)
let lateness = [| 1e-4; 2e-4; 3e-4; 5e-4 |]

let within_heard ~t av =
  av >= t +. p.Params.delta +. lateness.(0)
  && av <= t +. p.Params.delta +. lateness.(Array.length lateness - 1)

let heard_tests =
  [
    t "maintenance: three silent senders never reach CORR" (fun () ->
        let auto = Maintenance.automaton ~self_hint:0 cfg in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:0. Automaton.Start
            auto.Automaton.initial
        in
        let s =
          List.fold_left
            (fun s q ->
              fst
                (auto.Automaton.handle ~self:0
                   ~phys:(p.Params.delta +. lateness.(q))
                   (Automaton.Message (q, 0.)) s))
            s [ 0; 1; 2; 3 ]
        in
        let s, _ =
          auto.Automaton.handle ~self:0 ~phys:(Params.update_time p 0)
            (Automaton.Timer (Params.update_time p 0)) s
        in
        match Maintenance.history s with
        | [ r ] ->
          check_int "arrivals" 4 r.Maintenance.arrivals;
          check_true
            (Printf.sprintf "AV %g within the heard values" r.Maintenance.av)
            (within_heard ~t:p.Params.t0 r.Maintenance.av);
          check_true (Printf.sprintf "|ADJ| %g within bound" r.Maintenance.adj)
            (Float.abs r.Maintenance.adj <= Params.adjustment_bound p)
        | _ -> Alcotest.fail "one history record");
    t "reintegration: three silent senders never reach CORR" (fun () ->
        let rcfg = Reintegration.config cfg in
        let auto = Reintegration.automaton ~self_hint:6 rcfg in
        let feed s phys (q, v) =
          fst (auto.Automaton.handle ~self:6 ~phys (Automaton.Message (q, v)) s)
        in
        let s, _ =
          auto.Automaton.handle ~self:6 ~phys:0. Automaton.Start
            auto.Automaton.initial
        in
        let s = List.fold_left (fun s q -> feed s 0.1 (q, 0.)) s [ 0; 1; 2 ] in
        let target = p.Params.big_p in
        check_true "target" (Reintegration.target s = Some target);
        let arrive q = target +. p.Params.delta +. lateness.(q) in
        let s =
          List.fold_left (fun s q -> feed s (arrive q) (q, target)) s [ 0; 1; 2; 3 ]
        in
        (* The window opens at the (f+1)-th distinct sender, pid 2. *)
        let deadline = arrive 2 +. Reintegration.collect_window p in
        let s, _ =
          auto.Automaton.handle ~self:6 ~phys:deadline (Automaton.Timer deadline) s
        in
        check_true "joined" (Reintegration.mode s = Reintegration.Joined);
        (* Zero initial correction: CORR is this collect's ADJ. *)
        let adj = Reintegration.corr s in
        let av = target +. p.Params.delta -. adj in
        check_true (Printf.sprintf "AV %g within the heard values" av)
          (within_heard ~t:target av);
        check_true (Printf.sprintf "|ADJ| %g within bound" adj)
          (Float.abs adj <= Params.adjustment_bound p));
  ]

let suite =
  averaging_tests @ bounds_tests @ maintenance_unit_tests @ maintenance_e2e_tests
  @ reintegration_tests @ heard_tests
