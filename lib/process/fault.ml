let silent () =
  let auto =
    Automaton.stateless ~name:"fault.silent" (fun ~self:_ ~phys:_ _ -> [])
  in
  let proc, reader = Cluster.make_proc auto in
  (proc, reader)

let periodic ~name ~first_phys ~period_phys actions =
  if period_phys <= 0. then invalid_arg "Fault.periodic: nonpositive period";
  let auto =
    {
      Automaton.name;
      initial = 0;
      handle =
        (fun ~self ~phys interrupt count ->
          match interrupt with
          | Automaton.Start -> (count, [ Automaton.Set_timer_phys first_phys ])
          | Automaton.Timer _ ->
            let acts = actions ~self ~phys ~count in
            ( count + 1,
              acts @ [ Automaton.Set_timer_phys (phys +. period_phys) ] )
          | Automaton.Message _ -> (count, []));
      corr = (fun _ -> 0.);
    }
  in
  let proc, reader = Cluster.make_proc auto in
  (proc, reader)

type ('a, 'b) lifecycle = Running of 'a | Down of 'a | Recovered of 'b

let recovered_state = function Recovered s -> Some s | Running _ | Down _ -> None

let crash_recover ~crash_phys ~recover_phys ~(recovery : ('b, 'm) Automaton.t)
    (auto : ('a, 'm) Automaton.t) =
  if recover_phys <= crash_phys then
    invalid_arg "Fault.crash_recover: recovery not after the crash";
  let start_recovery ~self ~phys interrupt =
    (* The repaired process boots its recovery automaton from scratch: a
       fresh START, then - if the waking interrupt was a genuine message -
       that message, which the recovered process really does receive.  A
       waking timer was armed in its previous life and is dropped; later
       stale timers reach the recovery automaton like any interrupt. *)
    let st, acts = recovery.Automaton.handle ~self ~phys Automaton.Start recovery.Automaton.initial in
    match interrupt with
    | Automaton.Message _ ->
      let st, acts' = recovery.Automaton.handle ~self ~phys interrupt st in
      (Recovered st, acts @ acts')
    | Automaton.Start | Automaton.Timer _ -> (Recovered st, acts)
  in
  {
    Automaton.name = auto.Automaton.name ^ "+crash-recover";
    initial = Running auto.Automaton.initial;
    handle =
      (fun ~self ~phys interrupt state ->
        match state with
        | Running s when phys < crash_phys ->
          let s, acts = auto.Automaton.handle ~self ~phys interrupt s in
          (Running s, acts)
        | (Running s | Down s) when phys < recover_phys -> (Down s, [])
        | Running _ | Down _ -> start_recovery ~self ~phys interrupt
        | Recovered s ->
          let s, acts = recovery.Automaton.handle ~self ~phys interrupt s in
          (Recovered s, acts));
    corr =
      (function
      | Running s | Down s -> auto.Automaton.corr s
      | Recovered s -> recovery.Automaton.corr s);
  }
