module Automaton = Csync_process.Automaton
module Cluster = Csync_process.Cluster

type mode_tag = Observing | Collecting | Joined

type mode =
  | Observe of { seen : (float * int list) list }
      (* round values observed since waking, with their distinct senders *)
  | Collect of { target : float; arr : float array; deadline : float option }
  | Main of { join_round : int; inner : Maintenance.state }

type state = { corr : float; mode : mode; chosen_target : float option }

type config = { maintenance : Maintenance.config; initial_corr : float }

let config ?(initial_corr = 0.) maintenance =
  if maintenance.Maintenance.stagger <> 0. then
    invalid_arg "Reintegration.config: staggering not supported";
  if maintenance.Maintenance.exchanges <> 1 then
    invalid_arg "Reintegration.config: multiple exchanges not supported";
  { maintenance; initial_corr }

let collect_window (p : Params.t) =
  (1. +. p.Params.rho) *. (p.Params.beta +. (2. *. p.Params.eps))

let params cfg = cfg.maintenance.Maintenance.params

let initial_state cfg =
  { corr = cfg.initial_corr; mode = Observe { seen = [] }; chosen_target = None }

let state_collecting cfg ~target =
  {
    corr = cfg.initial_corr;
    mode =
      Collect
        {
          target;
          arr = Array.make (params cfg).Params.n Maintenance.arr_sentinel;
          deadline = None;
        };
    chosen_target = Some target;
  }

let round_index_of_t (p : Params.t) t_value =
  int_of_float (Float.round ((t_value -. p.Params.t0) /. p.Params.big_p))

(* Record that [q] claimed round value [v]; return the updated table and the
   number of distinct senders that have claimed [v]. *)
let observe_claim seen q v =
  let rec go acc = function
    | [] -> ((v, [ q ]) :: acc, 1)
    | (v', senders) :: rest when v' = v ->
      if List.mem q senders then (List.rev_append acc ((v', senders) :: rest), List.length senders)
      else
        let senders = q :: senders in
        (List.rev_append acc ((v', senders) :: rest), List.length senders)
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] seen

let handle cfg ~self ~phys interrupt s =
  let p = params cfg in
  match s.mode, interrupt with
  | Observe { seen }, Automaton.Message (q, v) ->
    let seen, claimants = observe_claim seen q v in
    if claimants >= p.Params.f + 1 then begin
      (* f+1 distinct senders named v, so at least one is nonfaulty: v is a
         genuine round in flight.  Its successor is the first round we will
         observe from its very beginning. *)
      let target = v +. p.Params.big_p in
      ( {
          s with
          mode =
            Collect
              { target; arr = Array.make p.Params.n Maintenance.arr_sentinel; deadline = None };
          chosen_target = Some target;
        },
        [] )
    end
    else ({ s with mode = Observe { seen } }, [])
  | Observe _, (Automaton.Start | Automaton.Timer _) -> (s, [])
  | Collect c, Automaton.Message (q, v) ->
    if v = c.target then begin
      let arr = Array.copy c.arr in
      arr.(q) <- phys +. s.corr;
      let distinct =
        Array.fold_left
          (fun acc x -> if x <> Maintenance.arr_sentinel then acc + 1 else acc)
          0 arr
      in
      match c.deadline with
      | Some _ -> ({ s with mode = Collect { c with arr } }, [])
      | None when distinct >= p.Params.f + 1 ->
        (* f+1 distinct senders have named the target, so at least one is
           nonfaulty and every other nonfaulty copy lands within beta +
           2 eps of real time from now.  Anchoring the window on the first
           arrival instead would let a single faulty early-bird close it
           before any nonfaulty message arrives, leaving the average full
           of sentinels. *)
        let deadline = phys +. collect_window p in
        ( { s with mode = Collect { c with arr; deadline = Some deadline } },
          [ Automaton.Set_timer_phys deadline ] )
      | None -> ({ s with mode = Collect { c with arr } }, [])
    end
    else (s, [])
  | Collect c, Automaton.Timer tag when c.deadline = Some tag ->
    let heard = Array.map (fun x -> x <> Maintenance.arr_sentinel) c.arr in
    let av =
      Maintenance.average_heard cfg.maintenance ~t:c.target ~arr:c.arr ~heard
    in
    let adj = c.target +. p.Params.delta -. av in
    let corr = s.corr +. adj in
    let next_t = c.target +. p.Params.big_p in
    let join_round = round_index_of_t p next_t in
    let inner =
      Maintenance.state_for_rejoin cfg.maintenance ~corr ~next_t ~round:join_round
    in
    ( { s with corr; mode = Main { join_round; inner } },
      [ Automaton.Set_timer_logical next_t ] )
  | Collect _, (Automaton.Start | Automaton.Timer _) -> (s, [])
  | Main m, _ ->
    let inner, actions = Maintenance.handle cfg.maintenance ~self ~phys interrupt m.inner in
    ({ s with corr = Maintenance.corr inner; mode = Main { m with inner } }, actions)

let automaton ~self_hint cfg =
  {
    Automaton.name = Printf.sprintf "wl-reintegration[%d]" self_hint;
    initial = initial_state cfg;
    handle = (fun ~self ~phys interrupt s -> handle cfg ~self ~phys interrupt s);
    corr = (fun s -> s.corr);
  }

let create ~self cfg = Cluster.make_proc (automaton ~self_hint:self cfg)

let mode s =
  match s.mode with
  | Observe _ -> Observing
  | Collect _ -> Collecting
  | Main _ -> Joined

let corr s = s.corr

let target s = s.chosen_target

let join_round s = match s.mode with Main m -> Some m.join_round | _ -> None

let maintenance_state s = match s.mode with Main m -> Some m.inner | _ -> None
