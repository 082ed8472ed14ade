module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster
module Multiset = Csync_multiset

type msg = Time of float | Ready

let pp_msg ppf = function
  | Time t -> Format.fprintf ppf "TIME(%g)" t
  | Ready -> Format.fprintf ppf "READY"

type round_record = {
  round : int;
  begin_local : float;
  begin_phys : float;
  adjustment : float;
  corr : float;
  early_end : bool;
}

type state = {
  corr : float;
  asleep : bool;
  a : float;
  diff : float array;
  early_end : bool;
  rcvd_ready : bool array;
  ready_count : int;
  t : float;
  u : float;
  v : float;
  round : int;
  history : round_record list; (* newest first *)
}

type config = {
  params : Params.t;
  averaging : Averaging.t;
  initial_corr : float;
}

let config ?(averaging = Averaging.midpoint) ?(initial_corr = 0.) params =
  { params; averaging; initial_corr }

let diff_sentinel = -1e12

let first_interval (p : Params.t) =
  (1. +. p.Params.rho) *. ((2. *. p.Params.delta) +. (4. *. p.Params.eps))

let second_interval (p : Params.t) =
  let { Params.rho; delta; eps; _ } = p in
  (1. +. rho)
  *. ((4. *. eps)
     +. (4. *. rho *. (delta +. (2. *. eps)))
     +. (2. *. rho *. rho *. (delta +. (4. *. eps))))

let initial_state cfg =
  let n = cfg.params.Params.n in
  {
    corr = cfg.initial_corr;
    asleep = true;
    a = 0.;
    diff = Array.make n diff_sentinel;
    early_end = false;
    rcvd_ready = Array.make n false;
    ready_count = 0;
    t = 0.;
    u = -1.;
    v = -1.;
    round = 0;
    history = [];
  }

(* The begin-round macro: broadcast the local time, set the first-interval
   timer, reset the per-round READY bookkeeping. *)
let begin_round cfg ~phys ~adjustment ~was_early s =
  let local = phys +. s.corr in
  let u = local +. first_interval cfg.params in
  let history =
    {
      round = s.round;
      begin_local = local;
      begin_phys = phys;
      adjustment;
      corr = s.corr;
      early_end = was_early;
    }
    :: s.history
  in
  ( {
      s with
      t = local;
      u;
      early_end = false;
      rcvd_ready = Array.make (Array.length s.rcvd_ready) false;
      ready_count = 0;
      history;
    },
    [ Automaton.Broadcast (Time local); Automaton.Set_timer_logical u ] )

let handle cfg ~self:_ ~phys interrupt s =
  let local () = phys +. s.corr in
  match interrupt with
  | Automaton.Start ->
    if s.asleep then begin_round cfg ~phys ~adjustment:0. ~was_early:false { s with asleep = false }
    else (s, [])
  | Automaton.Message (q, Time tq) ->
    let diff = Array.copy s.diff in
    diff.(q) <- tq +. cfg.params.Params.delta -. local ();
    let s = { s with diff } in
    if s.asleep then begin_round cfg ~phys ~adjustment:0. ~was_early:false { s with asleep = false }
    else (s, [])
  | Automaton.Timer tag when tag = s.u ->
    (* End of first waiting interval: compute (but do not apply) the
       adjustment, then wait the second interval. *)
    let a = Averaging.apply cfg.averaging ~f:cfg.params.Params.f (Multiset.of_array s.diff) in
    let v = s.u +. second_interval cfg.params in
    ({ s with a; v }, [ Automaton.Set_timer_logical v ])
  | Automaton.Timer tag when tag = s.v ->
    if s.early_end then (s, []) else (s, [ Automaton.Broadcast Ready ])
  | Automaton.Timer _ -> (s, []) (* stale timer from a previous round *)
  | Automaton.Message (q, Ready) ->
    if s.rcvd_ready.(q) then (s, [])
    else begin
      let rcvd_ready = Array.copy s.rcvd_ready in
      rcvd_ready.(q) <- true;
      let ready_count = s.ready_count + 1 in
      let s = { s with rcvd_ready; ready_count } in
      let p = cfg.params in
      let early_actions, s =
        if ready_count = p.Params.f + 1 && local () < s.v && not s.early_end then
          ([ Automaton.Broadcast Ready ], { s with early_end = true })
        else ([], s)
      in
      if ready_count = p.Params.n - p.Params.f then begin
        (* Apply the adjustment computed at U and start the next round. *)
        let diff = Array.map (fun d -> d -. s.a) s.diff in
        let s =
          { s with diff; corr = s.corr +. s.a; round = s.round + 1 }
        in
        let s, actions = begin_round cfg ~phys ~adjustment:s.a ~was_early:s.early_end s in
        (s, early_actions @ actions)
      end
      else (s, early_actions)
    end

let automaton ~self_hint cfg =
  {
    Automaton.name = Printf.sprintf "wl-establishment[%d]" self_hint;
    initial = initial_state cfg;
    handle = (fun ~self ~phys interrupt s -> handle cfg ~self ~phys interrupt s);
    corr = (fun s -> s.corr);
  }

let create ~self cfg = Cluster.make_proc (automaton ~self_hint:self cfg)

let corr s = s.corr

let rounds_completed s = s.round

let history s = List.rev s.history
