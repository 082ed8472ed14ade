(* Tests for the process/cluster runtime: automaton stepping, timers through
   logical clocks, the execution-model rules, and fault combinators. *)

module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster
module Fault = Csync_process.Fault
module Hw = Csync_clock.Hardware_clock
module Drift = Csync_clock.Drift
module Delay = Csync_net.Delay
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* An automaton that logs every interrupt it receives. *)
let recorder () =
  {
    Automaton.name = "recorder";
    initial = [];
    handle = (fun ~self:_ ~phys interrupt log -> ((phys, interrupt) :: log, []));
    corr = (fun _ -> 0.);
  }

let perfect_clocks n = Array.init n (fun _ -> Hw.create Drift.perfect)

let cluster_of_procs ?(delay = Delay.constant 0.01) procs =
  Cluster.create ~clocks:(perfect_clocks (Array.length procs)) ~delay ~procs ()

let basic_tests =
  [
    t "start delivery steps the automaton" (fun () ->
        let proc, read = Cluster.make_proc (recorder ()) in
        let cluster = cluster_of_procs [| proc |] in
        Cluster.schedule_start cluster ~pid:0 ~time:1.;
        Cluster.run_until cluster 2.;
        match read () with
        | [ (phys, Automaton.Start) ] -> check_float "phys" 1. phys
        | _ -> Alcotest.fail "expected one START");
    t "messages carry sender and payload" (fun () ->
        let sender =
          Automaton.stateless ~name:"sender" (fun ~self:_ ~phys:_ -> function
            | Automaton.Start -> [ Automaton.Send (1, "ping"); Automaton.Broadcast "b" ]
            | _ -> [])
        in
        let proc0, _ = Cluster.make_proc sender in
        let proc1, read1 = Cluster.make_proc (recorder ()) in
        let cluster = cluster_of_procs [| proc0; proc1 |] in
        Cluster.schedule_start cluster ~pid:0 ~time:0.;
        Cluster.run_until cluster 1.;
        let msgs =
          List.filter_map
            (function _, Automaton.Message (src, m) -> Some (src, m) | _ -> None)
            (read1 ())
        in
        (* The log is newest-first: the broadcast copy was scheduled after
           the direct send, so it arrives second and is listed first. *)
        Alcotest.(check (list (pair int string)))
          "received"
          [ (0, "b"); (0, "ping") ]
          msgs);
    t "logical timer fires when logical clock reaches T" (fun () ->
        (* Clock rate 2, corr = 3: logical time L(t) = 2t + 3.  A timer for
           L = 13 must fire at real time 5. *)
        let auto =
          {
            Automaton.name = "timer-test";
            initial = [];
            handle =
              (fun ~self:_ ~phys interrupt log ->
                match interrupt with
                | Automaton.Start -> (log, [ Automaton.Set_timer_logical 13. ])
                | i -> ((phys, i) :: log, []));
            corr = (fun _ -> 3.);
          }
        in
        let proc, read = Cluster.make_proc auto in
        let cluster =
          Cluster.create
            ~clocks:[| Hw.create (Drift.constant ~rate:2.) |]
            ~delay:(Delay.constant 0.01) ~procs:[| proc |] ()
        in
        Cluster.schedule_start cluster ~pid:0 ~time:0.;
        Cluster.run_until cluster 10.;
        match read () with
        | [ (phys, Automaton.Timer tag) ] ->
          check_float "tag" 13. tag;
          (* physical clock reads 10 at real 5 *)
          check_float "phys at fire" 10. phys
        | _ -> Alcotest.fail "expected one timer");
    t "physical timer" (fun () ->
        let auto =
          Automaton.stateless ~name:"p" (fun ~self:_ ~phys:_ -> function
            | Automaton.Start -> [ Automaton.Set_timer_phys 4. ]
            | _ -> [])
        in
        let proc, _ = Cluster.make_proc auto in
        let cluster = cluster_of_procs [| proc |] in
        Cluster.schedule_start cluster ~pid:0 ~time:0.;
        Cluster.run_until cluster 3.;
        check_int "pending timer" 1 (Csync_sim.Engine.pending
          (Csync_net.Message_buffer.engine (Cluster.buffer cluster))));
    t "timer for the past is silently dropped" (fun () ->
        let auto =
          Automaton.stateless ~name:"p" (fun ~self:_ ~phys:_ -> function
            | Automaton.Start -> [ Automaton.Set_timer_phys (-1.) ]
            | _ -> [])
        in
        let proc, _ = Cluster.make_proc auto in
        let cluster = cluster_of_procs [| proc |] in
        Cluster.schedule_start cluster ~pid:0 ~time:1.;
        Cluster.run_until cluster 2.;
        check_int "nothing pending" 0
          (Csync_sim.Engine.pending
             (Csync_net.Message_buffer.engine (Cluster.buffer cluster))));
    t "local_time = phys + corr" (fun () ->
        let auto = { (recorder ()) with Automaton.corr = (fun _ -> 2.5) } in
        let proc, _ = Cluster.make_proc auto in
        let cluster = cluster_of_procs [| proc |] in
        Cluster.run_until cluster 4.;
        check_float "local" 6.5 (Cluster.local_time cluster 0);
        check_float "phys" 4. (Cluster.phys_time cluster 0);
        check_float "corr" 2.5 (Cluster.corr cluster 0));
    t "crash_recover: silent while down, recovery receives after repair"
      (fun () ->
        let auto =
          Fault.crash_recover ~crash_phys:0.2 ~recover_phys:2.
            ~recovery:(recorder ()) (recorder ())
        in
        let proc, read = Cluster.make_proc auto in
        let sender =
          Fault.periodic ~name:"ticker" ~first_phys:0.5 ~period_phys:1.
            (fun ~self:_ ~phys:_ ~count:_ -> [ Automaton.Send (0, ()) ])
          |> fst
        in
        let cluster = cluster_of_procs [| proc; sender |] in
        Cluster.schedule_start cluster ~pid:1 ~time:0.;
        Cluster.run_until cluster 1.9;
        (match read () with
        | Fault.Down log -> check_int "nothing received while down" 0 (List.length log)
        | _ -> Alcotest.fail "expected the down state");
        Cluster.run_until cluster 4.;
        match Fault.recovered_state (read ()) with
        | Some log ->
          (* Ticks at ~2.51 and ~3.51: booted by the first, then the second. *)
          check_int "START + two ticks after repair" 3 (List.length log)
        | None -> Alcotest.fail "expected a recovered state");
    t "schedule_starts_at_logical places START at c_p(T0)" (fun () ->
        (* Clock reads T0 = 10 at real time 2 (offset 8, rate 1). *)
        let proc, read = Cluster.make_proc (recorder ()) in
        let cluster =
          Cluster.create
            ~clocks:[| Hw.create ~offset:8. Drift.perfect |]
            ~delay:(Delay.constant 0.01) ~procs:[| proc |] ()
        in
        Cluster.schedule_starts_at_logical cluster ~t0:10. ~corrs:[| 0. |];
        Cluster.run_until cluster 5.;
        match read () with
        | [ (phys, Automaton.Start) ] -> check_float "phys = T0" 10. phys
        | _ -> Alcotest.fail "expected START");
    t "cluster validates arguments" (fun () ->
        let proc, _ = Cluster.make_proc (recorder ()) in
        check_raises_invalid "length mismatch" (fun () ->
            ignore
              (Cluster.create ~clocks:(perfect_clocks 2)
                 ~delay:(Delay.constant 0.01) ~procs:[| proc |] ()));
        let cluster = cluster_of_procs [| proc |] in
        check_raises_invalid "pid range" (fun () -> Cluster.corr cluster 5));
  ]

let fault_tests =
  [
    t "silent never acts" (fun () ->
        let proc, _ = Fault.silent () in
        let cluster = cluster_of_procs [| proc |] in
        Cluster.schedule_start cluster ~pid:0 ~time:0.;
        Cluster.run_until cluster 5.;
        check_int "no messages" 0 (Cluster.messages_sent cluster));
    t "periodic fires on its physical clock" (fun () ->
        let proc, count =
          Fault.periodic ~name:"tick" ~first_phys:1. ~period_phys:2.
            (fun ~self:_ ~phys:_ ~count:_ -> [])
        in
        let cluster = cluster_of_procs [| proc |] in
        Cluster.schedule_start cluster ~pid:0 ~time:0.;
        Cluster.run_until cluster 6.;
        (* fires at 1, 3, 5 *)
        check_int "fired thrice" 3 (count ()));
    t "periodic validates period" (fun () ->
        check_raises_invalid "period" (fun () ->
            ignore
              (Fault.periodic ~name:"x" ~first_phys:0. ~period_phys:0.
                 (fun ~self:_ ~phys:_ ~count:_ -> []))));
    t "unrepaired crash_recover stops reacting" (fun () ->
        let count =
          {
            Automaton.name = "count";
            initial = 0;
            handle = (fun ~self:_ ~phys:_ _ n -> (n + 1, []));
            corr = (fun _ -> 0.);
          }
        in
        let auto =
          Fault.crash_recover ~crash_phys:2. ~recover_phys:infinity
            ~recovery:count count
        in
        let proc, read = Cluster.make_proc auto in
        let ticker =
          fst
            (Fault.periodic ~name:"tick" ~first_phys:0.5 ~period_phys:1.
               (fun ~self:_ ~phys:_ ~count:_ -> [ Automaton.Send (0, ()) ]))
        in
        let cluster = cluster_of_procs [| proc; ticker |] in
        Cluster.schedule_start cluster ~pid:1 ~time:0.;
        Cluster.run_until cluster 6.;
        (* ticks at ~0.51, 1.51 counted; later ones ignored *)
        match read () with
        | Fault.Running n | Fault.Down n -> check_int "stopped at 2" 2 n
        | Fault.Recovered _ -> Alcotest.fail "recovered without a repair");
    t "unrepaired crash_recover is permanently silent afterwards"
      (fun () ->
        let echo =
          Automaton.stateless ~name:"echo" (fun ~self:_ ~phys:_ -> function
            | Automaton.Message (q, ()) -> [ Automaton.Send (q, ()) ]
            | _ -> [])
        in
        let auto =
          Fault.crash_recover ~crash_phys:2. ~recover_phys:infinity
            ~recovery:echo echo
        in
        let st = ref auto.Automaton.initial in
        let outputs = ref 0 in
        for i = 1 to 100 do
          let s, actions =
            auto.Automaton.handle ~self:0 ~phys:(float_of_int i)
              (Automaton.Message (1, ())) !st
          in
          st := s;
          outputs := !outputs + List.length actions
        done;
        (* only the pre-crash interrupt (phys 1) produced output *)
        check_int "one echo then silence" 1 !outputs);
    t "crash_recover: crash, silence, then the recovery automaton boots"
      (fun () ->
        let echo =
          Automaton.stateless ~name:"echo" (fun ~self:_ ~phys:_ -> function
            | Automaton.Message (q, ()) -> [ Automaton.Send (q, ()) ]
            | _ -> [])
        in
        let auto =
          Fault.crash_recover ~crash_phys:2.5 ~recover_phys:4.5
            ~recovery:(recorder ()) echo
        in
        let st = ref auto.Automaton.initial in
        let outputs = ref 0 in
        let feed phys i =
          let s, actions = auto.Automaton.handle ~self:0 ~phys i !st in
          st := s;
          outputs := !outputs + List.length actions
        in
        let phase () =
          match !st with
          | Fault.Running _ -> "running"
          | Fault.Down _ -> "down"
          | Fault.Recovered _ -> "recovered"
        in
        Alcotest.(check string) "initially" "running" (phase ());
        feed 1. (Automaton.Message (1, ()));
        check_int "echoed while healthy" 1 !outputs;
        feed 3. (Automaton.Message (1, ()));
        Alcotest.(check string) "after the crash" "down" (phase ());
        check_int "silent while down" 1 !outputs;
        feed 5. (Automaton.Message (2, ()));
        Alcotest.(check string) "after repair" "recovered" (phase ());
        (match Fault.recovered_state !st with
        | Some log ->
          (* The recovery automaton was booted with a fresh START and then
             saw the waking message replayed into it. *)
          check_true "saw start"
            (List.exists (fun (_, i) -> i = Automaton.Start) log);
          check_true "waking message replayed"
            (List.exists (fun (_, i) -> i = Automaton.Message (2, ())) log)
        | None -> Alcotest.fail "expected a recovered state");
        check_raises_invalid "ordering" (fun () ->
            ignore
              (Fault.crash_recover ~crash_phys:2. ~recover_phys:2.
                 ~recovery:(recorder ()) echo)));
    t "crash_recover: stale timers are dropped only until the recovery boots"
      (fun () ->
        let auto =
          Fault.crash_recover ~crash_phys:2. ~recover_phys:4.
            ~recovery:(recorder ()) (recorder ())
        in
        let feed phys i s = fst (auto.Automaton.handle ~self:0 ~phys i s) in
        let recovered_log s =
          match Fault.recovered_state s with
          | Some log -> List.rev_map snd log
          | None -> Alcotest.fail "expected a recovered state"
        in
        (* Timers armed before the crash fire while down (dropped), then
           one wakes the process (dropped: recovery sees only its START),
           then one fires after recovery (delivered to the recovery). *)
        let s = feed 1. (Automaton.Timer 1.) auto.Automaton.initial in
        let s = feed 3. (Automaton.Timer 3.) s in
        check_true "down" (Fault.recovered_state s = None);
        let s = feed 4. (Automaton.Timer 4.) s in
        check_true "waking timer dropped"
          (recovered_log s = [ Automaton.Start ]);
        let s = feed 5. (Automaton.Timer 1.5) s in
        check_true "later stale timer reaches the recovery"
          (recovered_log s = [ Automaton.Start; Automaton.Timer 1.5 ]));
  ]

let suite = basic_tests @ fault_tests
