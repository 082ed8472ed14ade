module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster
module Params = Csync_core.Params

type round_record = { round : int; adj : float; corr_after : float; arrivals : int }

type phase = Bcast | Update

type state = {
  corr : float;
  t : float;
  flag : phase;
  est : float array;
  fresh : bool array;
  round : int;
  history : round_record list; (* newest first *)
}

type config = {
  params : Params.t;
  update : f:int -> float array -> float;
  name : string;
  initial_corr : float;
}

let est_sentinel = 1e12

let config ~params ~update ~name ?(initial_corr = 0.) () =
  { params; update; name; initial_corr }

let wait_window (p : Params.t) =
  (1. +. p.Params.rho) *. (p.Params.beta +. p.Params.delta +. p.Params.eps)

let initial_state cfg =
  let n = cfg.params.Params.n in
  {
    corr = cfg.initial_corr;
    t = cfg.params.Params.t0;
    flag = Bcast;
    est = Array.make n est_sentinel;
    fresh = Array.make n false;
    round = 0;
    history = [];
  }

let handle cfg ~self:_ ~phys interrupt s =
  match interrupt with
  | Automaton.Message (q, tv) ->
    let est = Array.copy s.est and fresh = Array.copy s.fresh in
    est.(q) <- tv +. cfg.params.Params.delta -. (phys +. s.corr);
    fresh.(q) <- true;
    ({ s with est; fresh }, [])
  | Automaton.Start | Automaton.Timer _ -> (
    match s.flag with
    | Bcast ->
      let n = Array.length s.est in
      ( { s with flag = Update; est = Array.make n est_sentinel; fresh = Array.make n false },
        [
          Automaton.Broadcast s.t;
          Automaton.Set_timer_logical (s.t +. wait_window cfg.params);
        ] )
    | Update ->
      let adj = cfg.update ~f:cfg.params.Params.f s.est in
      let corr = s.corr +. adj in
      let arrivals =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s.fresh
      in
      let history =
        { round = s.round; adj; corr_after = corr; arrivals } :: s.history
      in
      let t = s.t +. cfg.params.Params.big_p in
      ( { s with corr; t; flag = Bcast; round = s.round + 1; history },
        [ Automaton.Set_timer_logical t ] ))

let automaton ~self_hint cfg =
  {
    Automaton.name = Printf.sprintf "%s[%d]" cfg.name self_hint;
    initial = initial_state cfg;
    handle = (fun ~self ~phys interrupt s -> handle cfg ~self ~phys interrupt s);
    corr = (fun s -> s.corr);
  }

let create ~self cfg = Cluster.make_proc (automaton ~self_hint:self cfg)

let corr s = s.corr

let rounds_completed s = s.round

let history s = List.rev s.history
