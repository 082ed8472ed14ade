module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster
module Params = Csync_core.Params

(* Endpoint sweep: +1 at each lo, -1 just after each hi (hi inclusive, so
   sort opens before closes at equal coordinates).  Track the best-covered
   segment, preferring the widest at equal support. *)
let best_interval intervals =
  if intervals = [] then invalid_arg "Marzullo.best_interval: empty";
  List.iter
    (fun (lo, hi) ->
      if lo > hi then invalid_arg "Marzullo.best_interval: inverted interval")
    intervals;
  let events =
    List.concat_map (fun (lo, hi) -> [ (lo, 1); (hi, -1) ]) intervals
  in
  let events =
    List.sort
      (fun (a, da) (b, db) ->
        let c = Float.compare a b in
        if c <> 0 then c else Int.compare db da (* opens before closes *))
      events
  in
  let best_count = ref 0 in
  let best_seg = ref (0., 0.) in
  let count = ref 0 in
  let rec sweep = function
    | [] -> ()
    | (x, d) :: rest ->
      count := !count + d;
      (match rest with
       | (x', _) :: _ when d = 1 ->
         if
           !count > !best_count
           || (!count = !best_count && x' -. x > snd !best_seg -. fst !best_seg)
         then begin
           best_count := !count;
           best_seg := (x, x')
         end
       | _ -> ());
      sweep rest
  in
  sweep events;
  (!best_count, !best_seg)

type round_record = {
  round : int;
  adj : float;
  corr_after : float;
  error_after : float;
  support : int;
}

type phase = Bcast | Update

type state = {
  corr : float;
  err : float;
  t : float;
  flag : phase;
  received : (float * float) option array; (* per sender: (est, halfwidth) *)
  round : int;
  history : round_record list; (* newest first *)
}

type config = { params : Params.t; initial_corr : float }

let config ~params ?(initial_corr = 0.) () = { params; initial_corr }

let wait_window (p : Params.t) =
  (1. +. p.Params.rho) *. (p.Params.beta +. p.Params.delta +. p.Params.eps)

let initial_state cfg =
  {
    corr = cfg.initial_corr;
    err = cfg.params.Params.beta +. cfg.params.Params.eps;
    t = cfg.params.Params.t0;
    flag = Bcast;
    received = Array.make cfg.params.Params.n None;
    round = 0;
    history = [];
  }

let handle cfg ~self:_ ~phys interrupt s =
  let p = cfg.params in
  match interrupt with
  | Automaton.Message (q, (v, e)) ->
    (* Offset estimate for q: its clock read v a delay ago.  The interval
       [est - e - eps, est + e + eps] contains (true - mine) whenever q is
       honest and its own interval contains true time. *)
    let est = v +. p.Params.delta -. (phys +. s.corr) in
    let received = Array.copy s.received in
    received.(q) <- Some (est, e +. p.Params.eps);
    ({ s with received }, [])
  | Automaton.Start | Automaton.Timer _ -> (
    match s.flag with
    | Bcast ->
      let n = Array.length s.received in
      ( { s with flag = Update; received = Array.make n None },
        [
          Automaton.Broadcast (s.t, s.err);
          Automaton.Set_timer_logical (s.t +. wait_window p);
        ] )
    | Update ->
      let intervals =
        Array.to_list s.received
        |> List.filter_map
             (Option.map (fun (est, w) -> (est -. w, est +. w)))
      in
      let support, (lo, hi) =
        match intervals with [] -> (0, (0., 0.)) | l -> best_interval l
      in
      (* Accept only if a majority of the fault budget's complement agrees;
         otherwise hold the clock and let the error bound grow. *)
      let enough = support >= p.Params.n - p.Params.f - 1 in
      let adj = if enough then (lo +. hi) /. 2. else 0. in
      let drift_pad = 2. *. p.Params.rho *. p.Params.big_p in
      let err =
        if enough then ((hi -. lo) /. 2.) +. p.Params.eps +. drift_pad
        else s.err +. drift_pad
      in
      let corr = s.corr +. adj in
      let history =
        { round = s.round; adj; corr_after = corr; error_after = err; support }
        :: s.history
      in
      let t = s.t +. p.Params.big_p in
      ( { s with corr; err; t; flag = Bcast; round = s.round + 1; history },
        [ Automaton.Set_timer_logical t ] ))

let automaton ~self_hint cfg =
  {
    Automaton.name = Printf.sprintf "marzullo[%d]" self_hint;
    initial = initial_state cfg;
    handle = (fun ~self ~phys interrupt s -> handle cfg ~self ~phys interrupt s);
    corr = (fun s -> s.corr);
  }

let create ~self cfg = Cluster.make_proc (automaton ~self_hint:self cfg)

let corr s = s.corr

let error_bound s = s.err

let rounds_completed s = s.round

let history s = List.rev s.history
