module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster

(* Self-stabilizing recovery wrapper around {!Maintenance} (the
   Herman-style shape: a detector over locally observable evidence plus a
   fallback to a known-good re-establishment protocol - here Section 9.1
   reintegration, exactly as a crash-recovered process would run it).

   The wrapper also owns transient-fault *injection*: a schedule of
   (phys_at, severity, salt) corruption instants compiled from a chaos
   plan's [State_corrupt] events.  Injection and detection are independent
   - the detector never peeks at the schedule, only at the evidence the
   paper lets a process observe: its own ARR buffer against the
   (rho, delta, eps, f) arrival envelope, and the message flow against its
   round-phase progress. *)

type mode_tag = Healthy | Recovering

type inner = Ok_m of Maintenance.state | Rejoining of Reintegration.state

type state = {
  inner : inner;
  pending : (float * float * float) list; (* (phys_at, severity, salt), ascending *)
  corruptions : int; (* schedule entries applied so far *)
  breaches : int; (* detector firings -> reintegrations started *)
  msgs_in_phase : int; (* messages since the last observed phase flip *)
  rounds_at_breach : int; (* maintenance round count at the last breach *)
  readmissions : (int * float) list; (* (join_round, phys), newest first *)
}

type config = {
  maintenance : Maintenance.config;
  schedule : (float * float * float) list;
  detect : bool;
}

let config ?(detect = true) ?(schedule = []) maintenance =
  let active = detect || schedule <> [] in
  if active && maintenance.Maintenance.stagger <> 0. then
    invalid_arg "Stabilize.config: staggering not supported";
  if active && maintenance.Maintenance.exchanges <> 1 then
    invalid_arg "Stabilize.config: multiple exchanges not supported";
  List.iter
    (fun (_, severity, _) ->
      if not (severity > 0. && severity <= 1.) then
        invalid_arg "Stabilize.config: corruption severity out of (0, 1]")
    schedule;
  let schedule =
    List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) schedule
  in
  { maintenance; schedule; detect }

let maintenance_config cfg = cfg.maintenance

(* Arrival-envelope half-width around T + delta.  Nonfaulty arrivals land
   within (1+rho)(beta + eps) of it; doubling that leaves a full healthy
   spread of margin, so the detector only fires on corruptions too large
   for one round of averaging to absorb anyway. *)
let envelope (p : Params.t) =
  (1. +. p.Params.rho) *. (2. *. (p.Params.beta +. p.Params.eps))

(* A healthy process hears each peer once per round (n messages per phase
   cycle, self included); three rounds' worth of traffic without a single
   phase flip means the round timer is lost. *)
let stuck_threshold (p : Params.t) = 3 * p.Params.n

(* Worst-case healthy recovery, in rounds: detection (an update-envelope
   breach fires within the corrupted round; a stuck timer takes
   [stuck_threshold] messages, and with up to [f] other processes silent
   only [n - 1 - f] peers feed the counter each round) plus reintegration
   (observe f+1 claims of one round, wait for its successor, collect, and
   join at the round after that - about three rounds end to end) plus one
   round of margin. *)
let recovery_round_bound (p : Params.t) =
  let feeders = max 1 (p.Params.n - 1 - p.Params.f) in
  let detect =
    int_of_float
      (Float.ceil (float_of_int (stuck_threshold p) /. float_of_int feeders))
  in
  detect + 3 + 1

let initial_state cfg ~self =
  {
    inner = Ok_m (Maintenance.initial_state cfg.maintenance ~self);
    pending = cfg.schedule;
    corruptions = 0;
    breaches = 0;
    msgs_in_phase = 0;
    rounds_at_breach = 0;
    readmissions = [];
  }

(* The per-interrupt fast-path guard: false means nothing stabilization-
   related can happen on this interrupt and the wrapper may delegate
   straight to the inner automaton.  This is the "disabled-path" cost a
   healthy, never-corrupted node pays on every event. *)
let probe _cfg ~phys s =
  match s.inner, s.pending with
  | Ok_m _, [] -> false
  | Ok_m _, (at, _, _) :: _ -> phys >= at
  | Rejoining _, _ -> true

let params cfg = cfg.maintenance.Maintenance.params

let corr_push (p : Params.t) ~severity ~salt =
  let sign = if salt >= 0. then 1. else -1. in
  sign *. severity *. 4. *. p.Params.beta

let reint_config cfg ~initial_corr =
  Reintegration.config ~initial_corr cfg.maintenance

(* Apply every corruption whose instant has passed.  A corruption landing
   mid-recovery re-perturbs the arbitrary initial correction and restarts
   reintegration from Observe - the wrapper never assumes the previous
   attempt's partial progress survived the fault. *)
let rec apply_due cfg ~self ~phys s =
  match s.pending with
  | (at, severity, salt) :: pending when phys >= at ->
    let inner =
      match s.inner with
      | Ok_m m -> Ok_m (Maintenance.corrupt cfg.maintenance ~severity ~salt m)
      | Rejoining r ->
        let corr =
          Reintegration.corr r +. corr_push (params cfg) ~severity ~salt
        in
        let rcfg = reint_config cfg ~initial_corr:corr in
        Rejoining (Reintegration.automaton ~self_hint:self rcfg).Automaton.initial
    in
    apply_due cfg ~self ~phys
      { s with inner; pending; corruptions = s.corruptions + 1 }
  | _ -> s

(* The local-evidence test, evaluated on the pre-update snapshot: at least
   f+1 of this round's fresh arrivals must sit inside the envelope around
   T + delta.  Fewer means the process cannot be listening where the
   nonfaulty majority is broadcasting - its own state, not the network, is
   the only single fault that explains that. *)
let evidence_healthy cfg ~arr ~fresh ~t =
  let p = params cfg in
  let env = envelope p in
  let expected = t +. p.Params.delta in
  let count = ref 0 in
  Array.iteri
    (fun q heard ->
      if heard && Float.abs (arr.(q) -. expected) <= env then incr count)
    fresh;
  !count >= p.Params.f + 1

(* Abandon the current life and reintegrate, exactly as a crash-recovered
   process would ({!Fault.crash_recover}'s shape): boot the reintegration
   automaton with a fresh START, then - if the waking interrupt was a
   genuine message - replay that message, which the process really did
   receive.  Timers from the abandoned life are dropped; stale tags that
   still fire are ignored by both reintegration modes. *)
let start_recovery cfg ~self ~phys ~corr ~rounds interrupt s =
  let rcfg = reint_config cfg ~initial_corr:corr in
  let r0 = (Reintegration.automaton ~self_hint:self rcfg).Automaton.initial in
  let r, acts = Reintegration.handle rcfg ~self ~phys Automaton.Start r0 in
  let r, acts =
    match interrupt with
    | Automaton.Message _ ->
      let r, more = Reintegration.handle rcfg ~self ~phys interrupt r in
      (r, acts @ more)
    | Automaton.Start | Automaton.Timer _ -> (r, acts)
  in
  ( {
      s with
      inner = Rejoining r;
      breaches = s.breaches + 1;
      msgs_in_phase = 0;
      rounds_at_breach = rounds;
    },
    acts )

let handle_with ~mhandle cfg ~self ~phys interrupt s =
  let s = apply_due cfg ~self ~phys s in
  match s.inner with
  | Ok_m m ->
    let phase_before = Maintenance.current_phase m in
    let msgs =
      match interrupt with
      | Automaton.Message _ -> s.msgs_in_phase + 1
      | Automaton.Start | Automaton.Timer _ -> s.msgs_in_phase
    in
    if cfg.detect && msgs > stuck_threshold (params cfg) then
      (* Round progress is lost (a corrupted broadcast deadline): the phase
         has not flipped across three rounds of incoming traffic. *)
      start_recovery cfg ~self ~phys ~corr:(Maintenance.corr m)
        ~rounds:(Maintenance.rounds_completed m) interrupt s
    else begin
      (* Snapshot the evidence only when this interrupt can complete an
         update (a timer in the Update phase); messages never flip it.
         [mhandle] consumes [m] (ARR is written in place), so the snapshot
         copies ARR and the freshness flags before it runs; the rollback
         below reads only [m]'s correction and round count, which no
         transition changes in place. *)
      let check_update =
        cfg.detect && phase_before = Maintenance.Update
        &&
        match interrupt with
        | Automaton.Timer _ -> true
        | Automaton.Start | Automaton.Message _ -> false
      in
      let snapshot =
        if check_update then
          Some (Maintenance.arr m, Maintenance.fresh m, Maintenance.current_t m)
        else None
      in
      let m', acts = mhandle ~self ~phys interrupt m in
      let flipped = Maintenance.current_phase m' <> phase_before in
      match snapshot with
      | Some (arr, fresh, t)
        when flipped && not (evidence_healthy cfg ~arr ~fresh ~t) ->
        (* The update just consumed evidence outside the envelope: discard
           the polluted post-update state (and its round timer) and fall
           back to reintegration from the pre-update correction. *)
        start_recovery cfg ~self ~phys ~corr:(Maintenance.corr m)
          ~rounds:(Maintenance.rounds_completed m) interrupt s
      | _ ->
        ( {
            s with
            inner = Ok_m m';
            msgs_in_phase = (if flipped then 0 else msgs);
          },
          acts )
    end
  | Rejoining r ->
    let rcfg = reint_config cfg ~initial_corr:(Reintegration.corr r) in
    let r', acts = Reintegration.handle rcfg ~self ~phys interrupt r in
    (match Reintegration.join_round r' with
     | Some jr ->
       (* Joined: pop the embedded maintenance state back out so the next
          corruption meets a first-class healthy wrapper again.  The
          reintegration Main mode is a pure delegate, so behavior is
          identical from here on. *)
       let m =
         match Reintegration.maintenance_state r' with
         | Some m -> m
         | None -> assert false
       in
       ( {
           s with
           inner = Ok_m m;
           msgs_in_phase = 0;
           readmissions = (jr, phys) :: s.readmissions;
         },
         acts )
     | None -> ({ s with inner = Rejoining r' }, acts))

let handle cfg ~self ~phys interrupt s =
  handle_with ~mhandle:(Maintenance.handle cfg.maintenance) cfg ~self ~phys
    interrupt s

let mode s = match s.inner with Ok_m _ -> Healthy | Rejoining _ -> Recovering

let corr s =
  match s.inner with
  | Ok_m m -> Maintenance.corr m
  | Rejoining r -> Reintegration.corr r

let corruptions s = s.corruptions

let breaches s = s.breaches

let readmissions s = List.rev s.readmissions

let maintenance_state s =
  match s.inner with Ok_m m -> Some m | Rejoining _ -> None

let rounds_completed s =
  match s.inner with
  | Ok_m m -> Maintenance.rounds_completed m
  | Rejoining _ -> s.rounds_at_breach

let automaton ~self_hint cfg =
  (* Delegate the healthy path through the instrumented maintenance
     automaton, so wrapped processes keep their telemetry series and the
     online |ADJ| monitor. *)
  let mauto = Maintenance.automaton ~self_hint cfg.maintenance in
  {
    Automaton.name = Printf.sprintf "wl-stabilize[%d]" self_hint;
    initial = initial_state cfg ~self:self_hint;
    handle =
      (fun ~self ~phys interrupt s ->
        handle_with ~mhandle:(mauto.Automaton.handle) cfg ~self ~phys interrupt
          s);
    corr;
  }

let create ~self cfg = Cluster.make_proc (automaton ~self_hint:self cfg)
