module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster
module Multiset = Csync_multiset
module Obs = Csync_obs.Registry
module Mon = Csync_obs.Monitor

type phase = Bcast | Update

type round_record = {
  round : int;
  exchange : int;
  t_value : float;
  broadcast_phys : float;
  update_phys : float;
  av : float;
  adj : float;
  corr_after : float;
  arrivals : int;
}

type state = {
  corr : float;
  t : float;
  bcast_at : float; (* local time of this round's broadcast: t + self * stagger *)
  update_at : float; (* local time of this round's update timer *)
  flag : phase;
  arr : float array;
  fresh : bool array;
  round : int;
  exchange : int;
  broadcast_phys : float; (* phys reading at the last broadcast *)
  history : round_record list; (* newest first *)
}

type config = {
  params : Params.t;
  averaging : Averaging.t;
  exchanges : int;
  stagger : float;
  record_history : bool;
  initial_corr : float;
  degrade : bool;
}

let arr_sentinel = -1e12

(* Slack for comparing local times computed through a clock inverse/forward
   round-trip; far below any protocol quantity (eps >= 1e-7 in practice). *)
let local_time_slack = 1e-9

(* Spacing between the k exchanges bunched at the start of each round
   (Section 7's k-exchange variant): the smallest gap that keeps each
   exchange a well-formed mini-round. *)
let exchange_spacing (p : Params.t) =
  Params.p_min ~rho:p.Params.rho ~delta:p.Params.delta ~eps:p.Params.eps
    ~beta:p.Params.beta

let config ?(averaging = Averaging.midpoint) ?(exchanges = 1) ?(stagger = 0.)
    ?(record_history = true) ?(initial_corr = 0.) ?(degrade = false) params =
  if exchanges < 1 then invalid_arg "Maintenance.config: exchanges must be >= 1";
  if stagger < 0. then invalid_arg "Maintenance.config: negative stagger";
  if exchanges > 1 then begin
    let used =
      float_of_int (exchanges - 1) *. exchange_spacing params
      *. 2.
    in
    if used >= params.Params.big_p then
      invalid_arg "Maintenance.config: P too short for this many exchanges"
  end;
  { params; averaging; exchanges; stagger; record_history; initial_corr; degrade }

(* The local-time window between a broadcast and its update timer.  With
   staggering, late-offset senders (up to (n-1)*sigma later) must still be
   heard, so the window stretches accordingly. *)
let wait_window cfg =
  let p = cfg.params in
  let extra = float_of_int (p.Params.n - 1) *. cfg.stagger in
  (1. +. p.Params.rho) *. (p.Params.beta +. p.Params.delta +. p.Params.eps +. extra)

let initial_state cfg ~self =
  let n = cfg.params.Params.n in
  let t = cfg.params.Params.t0 in
  {
    corr = cfg.initial_corr;
    t;
    bcast_at = t +. (float_of_int self *. cfg.stagger);
    update_at = nan;
    flag = Bcast;
    arr = Array.make n arr_sentinel;
    fresh = Array.make n false;
    round = 0;
    exchange = 0;
    broadcast_phys = nan;
    history = [];
  }

let record_arrival cfg ~src ~local s =
  (* ARR[q] := local-time(), compensated by the sender's known stagger
     offset so that averaging is unaffected (Section 9.3). *)
  let arr = Array.copy s.arr and fresh = Array.copy s.fresh in
  arr.(src) <- local -. (float_of_int src *. cfg.stagger);
  fresh.(src) <- true;
  { s with arr; fresh }

let do_broadcast cfg ~phys s =
  let fresh = Array.make (Array.length s.fresh) false in
  let update_at = s.t +. wait_window cfg in
  ( { s with flag = Update; fresh; broadcast_phys = phys; update_at },
    [ Automaton.Broadcast s.t; Automaton.Set_timer_logical update_at ] )

(* Degraded averaging: use only this round's actual arrivals, discarding as
   many extremes as the live population can afford (g such that the 3g+1
   rule still holds within the heard set).  When fewer peers answer than n
   expects - beyond-f silence, a net split - the paper's fixed-f reduction
   would average leftover sentinels into garbage; shrinking the discard
   count instead keeps the correction anchored to the peers that are
   actually alive.  With a full house it coincides with the paper's rule. *)
let sorted_arrivals ?scratch a =
  match scratch with
  | Some buf -> Multiset.Scratch.sorted_of_array buf a
  | None -> Multiset.of_array a

let degraded_average ?scratch cfg s =
  let p = cfg.params in
  let count = ref 0 in
  Array.iter (fun fresh -> if fresh then incr count) s.fresh;
  if !count = 0 then None
  else begin
    (* One pass to collect the heard arrival times, no intermediate list. *)
    let heard = Array.make !count 0. in
    let k = ref 0 in
    Array.iteri
      (fun q fresh ->
        if fresh then begin
          heard.(!k) <- s.arr.(q);
          incr k
        end)
      s.fresh;
    let g = min p.Params.f ((!count - 1) / 3) in
    Some (Averaging.apply cfg.averaging ~f:g (sorted_arrivals ?scratch heard))
  end

let do_update ?scratch cfg ~phys s =
  let p = cfg.params in
  let av =
    if cfg.degrade then
      match degraded_average ?scratch cfg s with
      | Some av -> av
      | None -> s.t +. p.Params.delta (* heard nobody: free-run this round *)
    else
      Averaging.apply cfg.averaging ~f:p.Params.f (sorted_arrivals ?scratch s.arr)
  in
  let adj = s.t +. p.Params.delta -. av in
  let corr = s.corr +. adj in
  let arrivals = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s.fresh in
  let history =
    if cfg.record_history then
      {
        round = s.round;
        exchange = s.exchange;
        t_value = s.t;
        broadcast_phys = s.broadcast_phys;
        update_phys = phys;
        av;
        adj;
        corr_after = corr;
        arrivals;
      }
      :: s.history
    else s.history
  in
  let exchange = s.exchange + 1 in
  let spacing = exchange_spacing p in
  (* Exchanges j = 0..k-1 run at T^i + j*spacing; the round then rests until
     T^{i+1} = T^i + P. *)
  let round, exchange, t =
    if exchange = cfg.exchanges then
      ( s.round + 1,
        0,
        s.t -. (float_of_int (cfg.exchanges - 1) *. spacing) +. p.Params.big_p )
    else (s.round, exchange, s.t +. spacing)
  in
  (* Preserve this process' stagger slot relative to the round start. *)
  let self_offset = s.bcast_at -. s.t in
  let bcast_at = t +. self_offset in
  ( { s with corr; t; bcast_at; flag = Bcast; round; exchange; history },
    [ Automaton.Set_timer_logical bcast_at ] )

let handle ?scratch cfg ~self:_ ~phys interrupt s =
  match interrupt with
  | Automaton.Message (src, _t_value) ->
    (* receive(m) from q: ARR[q] := local-time() *)
    (record_arrival cfg ~src ~local:(phys +. s.corr) s, [])
  | Automaton.Start | Automaton.Timer _ -> (
    match s.flag with
    | Bcast ->
      let local = phys +. s.corr in
      if local +. local_time_slack >= s.bcast_at then do_broadcast cfg ~phys s
      else
        (* Round start reached before this process' stagger slot: wait. *)
        (s, [ Automaton.Set_timer_logical s.bcast_at ])
    | Update -> (
      (* Only the timer armed at this round's broadcast may trigger the
         update; stale timers (e.g. surviving a mode switch or crash) are
         ignored - firing early would average an empty round. *)
      match interrupt with
      | Automaton.Timer tag when tag = s.update_at -> do_update ?scratch cfg ~phys s
      | Automaton.Start | Automaton.Timer _ -> (s, [])
      | Automaton.Message _ -> assert false (* handled above *)))

let automaton ~self_hint cfg =
  let initial = initial_state cfg ~self:self_hint in
  (* One scratch buffer per automaton instance: the update sorts the same-
     size ARR array every exchange, so steady state allocates nothing.  The
     instance (and hence the buffer) belongs to a single cluster, which
     processes events sequentially.  It is wrapped for [handle]'s optional
     argument once, here, not on every event. *)
  let scratch = Some (Multiset.Scratch.create ()) in
  (* Telemetry handles are captured here, once per automaton; with the
     ambient registry disabled they are no-ops and the wrapped handler
     costs two phase comparisons per event. *)
  let obs = Obs.installed () in
  let obs_adj = Obs.series obs (Printf.sprintf "proc.%d.adj" self_hint) in
  let obs_corr = Obs.series obs (Printf.sprintf "proc.%d.corr" self_hint) in
  let observing = Obs.Series.active obs_adj in
  (* Online |ADJ| monitor (Theorem 18), captured like the obs handles.  The
     shadow array remembers, per peer, the provenance id of the last
     message that wrote ARR[q] (published on the monitor by the cluster),
     so a violating update can name the exact message copies behind it. *)
  let mon = Mon.installed () in
  let mon_adj =
    Mon.Adjustment.handle mon ~bound:(Params.adjustment_bound cfg.params)
      ~pid:self_hint
  in
  let monitoring = Mon.Adjustment.active mon_adj in
  let arr_prov =
    if monitoring then Array.make cfg.params.Params.n Mon.Prov.null else [||]
  in
  let slots_of s =
    let acc = ref [] in
    for q = Array.length arr_prov - 1 downto 0 do
      if arr_prov.(q) <> Mon.Prov.null then
        acc := { Mon.pid = q; prov = arr_prov.(q); fresh = s.fresh.(q) } :: !acc
    done;
    Array.of_list !acc
  in
  {
    Automaton.name = Printf.sprintf "wl-maintenance[%d]" self_hint;
    initial;
    handle =
      (fun ~self ~phys interrupt s ->
        (match interrupt with
        | Automaton.Message (src, _) when monitoring ->
          arr_prov.(src) <- Mon.Prov.current mon
        | _ -> ());
        let ((s', _) as result) = handle ?scratch cfg ~self ~phys interrupt s in
        (* An Update -> Bcast flag transition is exactly one completed
           round update (do_update); log ADJ and the running CORR against
           the round index at that boundary. *)
        if (observing || monitoring) && s.flag = Update && s'.flag = Bcast
        then begin
          let adj = s'.corr -. s.corr in
          if observing then begin
            let r = float_of_int s.round in
            Obs.Series.push obs_adj r adj;
            Obs.Series.push obs_corr r s'.corr
          end;
          if monitoring then
            Mon.Adjustment.check mon_adj ~round:s.round ~time:phys ~adj
              ~slots:(fun () -> slots_of s)
        end;
        result);
    corr = (fun s -> s.corr);
  }

let create ~self cfg = Cluster.make_proc (automaton ~self_hint:self cfg)

let corr s = s.corr

let current_t s = s.t

let current_phase s = s.flag

let rounds_completed s = s.round

let history s = List.rev s.history

let arr s = Array.copy s.arr

let fresh s = Array.copy s.fresh

(* Transient-fault injection (Chaos State_corrupt): overwrite the
   locally held protocol state with adversarial garbage, deterministically
   derived from [severity] and [salt].  Graded damage:

   - always: the correction is pushed by sign(salt) * severity * 4*beta -
     small severities stay inside the averaging window's slack and heal in
     about one round, large ones push the process clear of the message
     window and force full reintegration;
   - severity >= 1/2: the ARR buffer is filled with garbage arrival times
     marked fresh, so the next update would average nonsense;
   - severity >= 3/4: the broadcast deadline is pushed ~2.5 rounds into
     the future, silencing the process (a stuck round timer).

   [t] itself is left intact: a corrupted T value would turn the victim
   into a Byzantine sender, which is a different fault model (the paper's
   f-tolerance covers it, but E15 wants to measure recovery of the victim,
   not poisoning of the others). *)
let corrupt cfg ~severity ~salt s =
  let p = cfg.params in
  let sign = if salt >= 0. then 1. else -1. in
  let offset = sign *. severity *. 4. *. p.Params.beta in
  let corr = s.corr +. offset in
  let arr, fresh =
    if severity >= 0.5 then begin
      let n = Array.length s.arr in
      let garbage q =
        let spread = (0.25 +. Float.abs salt) *. p.Params.big_p in
        let dir = if (q + if salt >= 0. then 0 else 1) land 1 = 0 then 1. else -1. in
        s.t +. (dir *. spread *. float_of_int (q + 1))
      in
      (Array.init n garbage, Array.make n true)
    end
    else (Array.copy s.arr, Array.copy s.fresh)
  in
  let bcast_at =
    if severity >= 0.75 then s.bcast_at +. (2.5 *. p.Params.big_p) else s.bcast_at
  in
  { s with corr; arr; fresh; bcast_at }

let state_for_rejoin cfg ~corr ~next_t ~round =
  let base = initial_state cfg ~self:0 in
  { base with corr; t = next_t; bcast_at = next_t; round; flag = Bcast }
