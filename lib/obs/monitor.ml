(* Online theorem monitors.  The structure mirrors Registry: an enabled
   flag checked on every handle mint, permanent no-op handles, and plain
   mutable state - a monitor has one writer at a time (see monitor.mli),
   so nothing here synchronizes.  Parallel regions record into per-task
   children and fold them in with [merge] after the join. *)

type check =
  | Agreement
  | Validity
  | Adjustment
  | Halving
  | Stabilization
  | Reconvergence
  | Local_skew

let all_checks =
  [
    Agreement;
    Validity;
    Adjustment;
    Halving;
    Stabilization;
    Reconvergence;
    Local_skew;
  ]

let check_index = function
  | Agreement -> 0
  | Validity -> 1
  | Adjustment -> 2
  | Halving -> 3
  | Stabilization -> 4
  | Reconvergence -> 5
  | Local_skew -> 6

let check_name = function
  | Agreement -> "agreement"
  | Validity -> "validity"
  | Adjustment -> "adjustment"
  | Halving -> "halving"
  | Stabilization -> "stabilization"
  | Reconvergence -> "reconvergence"
  | Local_skew -> "local_skew"

type prov_entry = {
  id : int;
  src : int;
  dst : int;
  sent : float;
  delay : float;
  faults : string list;
}

type slot = { pid : int; prov : int; fresh : bool }

type violation = {
  monitor : check;
  label : string;
  round : int option;
  pid : int option;
  time : float;
  measured : float;
  bound : float;
  provenance : (prov_entry * bool) list;
}

type cell = {
  mutable evals : int;
  mutable viols : int;
  mutable first : violation option;
}

(* Provenance ids count this monitor's mints from 0 ([merge] moves the
   count past a child's ids).  Id [i] lives in slot [i land (ring_cap - 1)]
   and a stored entry is only trusted when its own id matches the probe,
   so eviction degrades to [find = None] instead of misattribution.
   Slots are stored flat, one array per entry field ([-1] marks an id
   never written), so a mint writes preallocated slots and leaves nothing
   on the heap for each message.  The arrays come in chunks of
   [chunk_len] slots that are added, never copied: a ring that doubles by
   copying allocates twice its final size in the major heap, and a
   monitored run paid for that in collector work.  Chunk 0 alone starts
   at one slot and doubles, so a short-lived per-task child stays small. *)
let ring_cap = 65536 (* power of two *)

let chunk_bits = 9

let chunk_len = 1 lsl chunk_bits

type chunk = {
  ids : int array;
  srcs : int array;
  dsts : int array;
  sents : float array;
  delays : float array;
  kinds : string list array;
}

let chunk_make len =
  {
    ids = Array.make len (-1);
    srcs = Array.make len 0;
    dsts = Array.make len 0;
    sents = Array.make len 0.;
    delays = Array.make len 0.;
    kinds = Array.make len [];
  }

(* Directory entries of chunks not made yet. *)
let no_chunk = chunk_make 0

let chunk_grow c =
  let len = Array.length c.ids in
  if len = 0 then chunk_make chunk_len
  else begin
    let d = chunk_make (2 * len) in
    Array.blit c.ids 0 d.ids 0 len;
    Array.blit c.srcs 0 d.srcs 0 len;
    Array.blit c.dsts 0 d.dsts 0 len;
    Array.blit c.sents 0 d.sents 0 len;
    Array.blit c.delays 0 d.delays 0 len;
    Array.blit c.kinds 0 d.kinds 0 len;
    d
  end

type t = {
  enabled : bool;
  tighten : float;
  on : bool array; (* indexed by check_index; shared with children *)
  cells : cell array;
  mutable first_overall : violation option;
  mutable prov_next : int;
  mutable chunks : chunk array;  (* chunk k holds slots from k * chunk_len *)
  (* Chaos fault kinds applied to the message currently passing through
     the injector, attached to every mint until [Prov.clear_staged]. *)
  mutable staged : string list;
  (* Provenance id of the delivery being dispatched to an automaton. *)
  mutable current : int;
}

let n_checks = List.length all_checks

let make_monitor ~enabled ~on ~tighten =
  {
    enabled;
    tighten;
    on;
    cells =
      Array.init n_checks (fun _ -> { evals = 0; viols = 0; first = None });
    first_overall = None;
    prov_next = 0;
    chunks = [| chunk_make 1 |];
    staged = [];
    current = -1;
  }

let none =
  make_monitor ~enabled:false ~on:(Array.make n_checks false) ~tighten:1.0

let create ?(checks = all_checks) ?(tighten = 1.0) () =
  let on = Array.make n_checks false in
  List.iter (fun c -> on.(check_index c) <- true) checks;
  make_monitor ~enabled:true ~on ~tighten

let child t =
  if t.enabled then make_monitor ~enabled:true ~on:t.on ~tighten:t.tighten
  else none

let enabled t = t.enabled

(* Ambient monitor, one slot per worker ({!Tls}): [Pool] installs each
   task's child on the worker running it, so components created inside a
   task capture the child and never another worker's monitor. *)
let installed_key = Tls.new_key (fun () -> none)

let install t = Tls.set installed_key t

let installed () = Tls.get installed_key

let clear_installed () = Tls.set installed_key none

let current_label () = Registry.label (Registry.installed ())

let bump t c =
  let cell = t.cells.(check_index c) in
  cell.evals <- cell.evals + 1

let record ?round ?pid ?(provenance = []) t monitor ~time ~measured ~bound =
  let cell = t.cells.(check_index monitor) in
  cell.viols <- cell.viols + 1;
  let label = current_label () in
  let v = { monitor; label; round; pid; time; measured; bound; provenance } in
  if cell.first = None then cell.first <- Some v;
  if t.first_overall = None then t.first_overall <- Some v

module Prov = struct
  type id = int

  let null = -1

  (* Make chunk [k] hold offset [j]: grow the directory, make the chunk,
     or double chunk 0. *)
  let make_room t ~k ~j =
    let n = Array.length t.chunks in
    if k >= n then begin
      let m = ref n in
      while k >= !m do
        m := 2 * !m
      done;
      let dir = Array.make !m no_chunk in
      Array.blit t.chunks 0 dir 0 n;
      t.chunks <- dir
    end;
    let c = ref t.chunks.(k) in
    while j >= Array.length !c.ids do
      c := chunk_grow !c
    done;
    t.chunks.(k) <- !c

  let mint t ~src ~dst ~sent ~delay =
    if not t.enabled then null
    else begin
      let id = t.prov_next in
      t.prov_next <- id + 1;
      let slot = id land (ring_cap - 1) in
      let k = slot lsr chunk_bits and j = slot land (chunk_len - 1) in
      if k >= Array.length t.chunks || j >= Array.length t.chunks.(k).ids
      then make_room t ~k ~j;
      let c = t.chunks.(k) in
      c.ids.(j) <- id;
      c.srcs.(j) <- src;
      c.dsts.(j) <- dst;
      c.sents.(j) <- sent;
      c.delays.(j) <- delay;
      c.kinds.(j) <- List.rev t.staged;
      id
    end

  let stage_fault t kind = if t.enabled then t.staged <- kind :: t.staged

  let clear_staged t = if t.enabled then t.staged <- []

  let set_current t id = if t.enabled then t.current <- id

  let current t = if t.enabled then t.current else null

  type entry = prov_entry = {
    id : id;
    src : int;
    dst : int;
    sent : float;
    delay : float;
    faults : string list;
  }

  let find t id =
    if (not t.enabled) || id < 0 then None
    else begin
      let slot = id land (ring_cap - 1) in
      let k = slot lsr chunk_bits and j = slot land (chunk_len - 1) in
      let c = if k < Array.length t.chunks then t.chunks.(k) else no_chunk in
      if j >= Array.length c.ids || c.ids.(j) <> id then None
      else
        Some
          {
            id;
            src = c.srcs.(j);
            dst = c.dsts.(j);
            sent = c.sents.(j);
            delay = c.delays.(j);
            faults = c.kinds.(j);
          }
    end
end

(* Bound comparisons tolerate float noise the same way the offline
   checkers do: a violation must exceed the bound by more than [tol]
   relative to the bound's scale. *)
let tol = 1e-9

let exceeds measured bound = measured > bound +. (tol *. (1. +. Float.abs bound))

module Agreement = struct
  type handle = Noop | H of { t : t; gamma : float; from_time : float }

  let handle t ~gamma ~from_time =
    if t.enabled && t.on.(check_index Agreement) then
      H { t; gamma = gamma *. t.tighten; from_time }
    else Noop

  let check h ~time ~skew =
    match h with
    | Noop -> ()
    | H { t; gamma; from_time } ->
      if time >= from_time then begin
        bump t Agreement;
        if exceeds skew gamma then
          record t Agreement ~time ~measured:skew ~bound:gamma
      end
end

module Validity = struct
  type handle =
    | Noop
    | H of {
        t : t;
        alpha1 : float;
        alpha2 : float;
        alpha3 : float;
        t0 : float;
        tmin0 : float;
        tmax0 : float;
      }

  let handle t ~alpha1 ~alpha2 ~alpha3 ~t0 ~tmin0 ~tmax0 =
    if t.enabled && t.on.(check_index Validity) then
      H { t; alpha1; alpha2; alpha3 = alpha3 *. t.tighten; t0; tmin0; tmax0 }
    else Noop

  let check h ~time ~min_local ~max_local =
    match h with
    | Noop -> ()
    | H c ->
      bump c.t Validity;
      let lower = (c.alpha1 *. (time -. c.tmax0)) -. c.alpha3 in
      let upper = (c.alpha2 *. (time -. c.tmin0)) +. c.alpha3 in
      let violation measured bound =
        record c.t Validity ~time ~measured ~bound
      in
      if exceeds lower (min_local -. c.t0) then violation (min_local -. c.t0) lower
      else if exceeds (max_local -. c.t0) upper then
        violation (max_local -. c.t0) upper
end

module Adjustment = struct
  type handle = Noop | H of { t : t; bound : float; pid : int }

  let handle t ~bound ~pid =
    if t.enabled && t.on.(check_index Adjustment) then
      H { t; bound = bound *. t.tighten; pid }
    else Noop

  let active = function Noop -> false | H _ -> true

  let check h ~round ~time ~adj ~slots =
    match h with
    | Noop -> ()
    | H { t; bound; pid } ->
      bump t Adjustment;
      if exceeds (Float.abs adj) bound then begin
        let slots = slots () in
        let resolve fresh =
          Array.to_list slots
          |> List.filter_map (fun (s : slot) ->
                 if s.fresh = fresh then
                   match Prov.find t s.prov with
                   | Some e -> Some (e, s.fresh)
                   | None -> None
                 else None)
        in
        record t Adjustment ~round ~pid ~time ~measured:(Float.abs adj) ~bound
          ~provenance:(resolve true @ resolve false)
      end
end

module Halving = struct
  type handle =
    | Noop
    | H of {
        t : t;
        recurrence : float -> float;
        mutable last : (int * float) option;
      }

  let handle t ~recurrence =
    if t.enabled && t.on.(check_index Halving) then
      H { t; recurrence; last = None }
    else Noop

  let observe h ~round ~spread =
    match h with
    | Noop -> ()
    | H c ->
      (match c.last with
      | Some (r, b) when round = r + 1 ->
        bump c.t Halving;
        let bound = c.recurrence b *. c.t.tighten in
        if exceeds spread bound then
          record c.t Halving ~round ~time:(float_of_int round)
            ~measured:spread ~bound
      | _ -> ());
      c.last <- Some (round, spread)
end

(* Eventual properties ("within R rounds of the last corruption, ...").
   Unlike the invariant monitors above, these carry per-pid obligations: a
   corruption opens one, a later corruption of the same pid replaces it
   (the property is anchored on the *last* corruption), and the obligation
   resolves either as a violation - the predicate still fails after the
   deadline - or as a pass at [finish], when the run has covered the
   deadline without one.  Obligations whose deadline the run never reaches
   are inconclusive and dropped, not counted.  Each opened obligation
   mints a provenance entry naming the corrupting fault, so a first
   violation names its cause like any message-borne fault would. *)
module Eventual = struct
  type pending = {
    pid : int;
    corrupted_at : float;
    deadline : float;
    provenance : (prov_entry * bool) list;
    mutable breached : bool;
  }

  type body = { t : t; check : check; mutable pending : pending list }

  let corrupted c ~pid ~time ~deadline =
    Prov.stage_fault c.t "state-corrupt";
    let id = Prov.mint c.t ~src:pid ~dst:pid ~sent:time ~delay:0. in
    Prov.clear_staged c.t;
    let provenance =
      match Prov.find c.t id with None -> [] | Some e -> [ (e, true) ]
    in
    c.pending <-
      { pid; corrupted_at = time; deadline; provenance; breached = false }
      :: List.filter (fun p -> p.pid <> pid) c.pending

  (* [bad] is the property's failure predicate at this observation.  After
     the deadline, a failing observation is a violation (recorded once per
     obligation, on its first breach). *)
  let observe c ~pid ~time ~bad ~measured ~bound =
    List.iter
      (fun p ->
        if p.pid = pid && (not p.breached) && time > p.deadline && bad then begin
          p.breached <- true;
          bump c.t c.check;
          record c.t c.check ~pid ~time ~measured ~bound
            ~provenance:p.provenance
        end)
      c.pending

  let finish c ~time =
    List.iter
      (fun p -> if (not p.breached) && p.deadline <= time then bump c.t c.check)
      c.pending;
    c.pending <- []
end

module Stabilization = struct
  type handle = Noop | H of { body : Eventual.body; limit : float }

  (* The property: a corrupted process re-enters gamma within [rounds]
     rounds (of real length [big_p]) of its last corruption.  [tighten]
     shrinks the allowance. *)
  let handle t ~rounds ~big_p =
    if t.enabled && t.on.(check_index Stabilization) then
      H
        {
          body = { Eventual.t; check = Stabilization; pending = [] };
          limit = float_of_int rounds *. big_p *. t.tighten;
        }
    else Noop

  let active = function Noop -> false | H _ -> true

  let corrupted h ~pid ~time =
    match h with
    | Noop -> ()
    | H { body; limit } ->
      Eventual.corrupted body ~pid ~time ~deadline:(time +. limit)

  let observe h ~pid ~time ~within_gamma =
    match h with
    | Noop -> ()
    | H { body; limit } ->
      Eventual.observe body ~pid ~time ~bad:(not within_gamma)
        ~measured:
          (match
             List.find_opt (fun p -> p.Eventual.pid = pid) body.Eventual.pending
           with
          | Some p -> time -. p.Eventual.corrupted_at
          | None -> time)
        ~bound:limit

  let finish h ~time =
    match h with Noop -> () | H { body; _ } -> Eventual.finish body ~time
end

module Reconvergence = struct
  type handle = Noop | H of { body : Eventual.body; limit : float; bound : float }

  (* The property: within [rounds] rounds of its last corruption, a
     corrupted process' correction is back within [bound] of the clean
     processes' (the gap the caller measures).  [tighten] shrinks the
     gap bound. *)
  let handle t ~rounds ~big_p ~bound =
    if t.enabled && t.on.(check_index Reconvergence) then
      H
        {
          body = { Eventual.t; check = Reconvergence; pending = [] };
          limit = float_of_int rounds *. big_p;
          bound = bound *. t.tighten;
        }
    else Noop

  let active = function Noop -> false | H _ -> true

  let corrupted h ~pid ~time =
    match h with
    | Noop -> ()
    | H { body; limit; _ } ->
      Eventual.corrupted body ~pid ~time ~deadline:(time +. limit)

  let observe h ~pid ~time ~gap =
    match h with
    | Noop -> ()
    | H { body; bound; _ } ->
      Eventual.observe body ~pid ~time ~bad:(exceeds gap bound) ~measured:gap
        ~bound

  let finish h ~time =
    match h with Noop -> () | H { body; _ } -> Eventual.finish body ~time
end

module Local_skew = struct
  type handle = Noop | H of { t : t; kappa : float }

  (* The gradient property, per observation: the skew between two
     processes at graph distance [dist] stays within [kappa * dist]
     (distance 1 - an edge - is the local-skew bound proper).  [kappa]
     comes from the gradient rule's fixed point; [tighten] shrinks it. *)
  let handle t ~kappa =
    if t.enabled && t.on.(check_index Local_skew) then
      H { t; kappa = kappa *. t.tighten }
    else Noop

  let active = function Noop -> false | H _ -> true

  let check h ~round ~time ~dist ~skew =
    match h with
    | Noop -> ()
    | H { t; kappa } ->
      if dist > 0 then begin
        bump t Local_skew;
        let bound = kappa *. float_of_int dist in
        if exceeds skew bound then
          record t Local_skew ~round ~time ~measured:skew ~bound
      end
end

(* ---------- merging a child ---------- *)

(* Children are merged in task-index order, which is the order a
   one-worker run records in: counts add, the first violation already
   held wins, and the child's provenance ids (counted from 0) move past
   every id [into] has minted, so they read as if minted in [into]. *)
let merge ~into c =
  if into.enabled && c.enabled then begin
    let shift = into.prov_next in
    let renumber (v : violation) =
      let shifted ((e : prov_entry), fresh) =
        ({ e with id = e.id + shift }, fresh)
      in
      { v with provenance = List.map shifted v.provenance }
    in
    let keep held first =
      match held with Some _ -> held | None -> Option.map renumber first
    in
    Array.iteri
      (fun i (k : cell) ->
        let p = into.cells.(i) in
        p.evals <- p.evals + k.evals;
        p.viols <- p.viols + k.viols;
        p.first <- keep p.first k.first)
      c.cells;
    into.first_overall <- keep into.first_overall c.first_overall;
    into.prov_next <- shift + c.prov_next
  end

(* ---------- results ---------- *)

let checks_performed t = Array.fold_left (fun acc c -> acc + c.evals) 0 t.cells

let violations_total t = Array.fold_left (fun acc c -> acc + c.viols) 0 t.cells

let first_violation t = t.first_overall

let results t =
  List.map
    (fun c ->
      let cell = t.cells.(check_index c) in
      (c, cell.evals, cell.viols, cell.first))
    all_checks

let opt_int = function None -> Json.Null | Some i -> Json.num_of_int i

let entry_json ((e : prov_entry), fresh) =
  Json.Obj
    [
      ("id", Json.num_of_int e.id);
      ("src", Json.num_of_int e.src);
      ("dst", Json.num_of_int e.dst);
      ("sent", Json.Num e.sent);
      ("delay", Json.Num e.delay);
      ("fresh", Json.Bool fresh);
      ("faults", Json.Arr (List.map (fun f -> Json.Str f) e.faults));
    ]

let violation_json (v : violation) =
  Json.Obj
    [
      ("label", Json.Str v.label);
      ("round", opt_int v.round);
      ("pid", opt_int v.pid);
      ("time", Json.Num v.time);
      ("measured", Json.Num v.measured);
      ("bound", Json.Num v.bound);
      ("provenance", Json.Arr (List.map entry_json v.provenance));
    ]

let dump t =
  results t
  |> List.filter (fun (c, _, _, _) -> t.on.(check_index c))
  |> List.map (fun (c, evals, viols, first) ->
         Json.Obj
           [
             ("record", Json.Str "monitor");
             ("monitor", Json.Str (check_name c));
             ("checks", Json.num_of_int evals);
             ("violations", Json.num_of_int viols);
             ( "first",
               match first with None -> Json.Null | Some v -> violation_json v
             );
           ])

let pp_violation ppf (v : violation) =
  Format.fprintf ppf "first at t=%.6f%s%s: measured %.6g > bound %.6g%s"
    v.time
    (match v.round with None -> "" | Some r -> Printf.sprintf " round %d" r)
    (match v.pid with None -> "" | Some p -> Printf.sprintf " pid %d" p)
    v.measured v.bound
    (if v.label = "" then "" else Printf.sprintf " [%s]" v.label)

let pp_summary ppf t =
  if not t.enabled then Format.fprintf ppf "monitors: disabled@."
  else begin
    List.iter
      (fun (c, evals, viols, first) ->
        if t.on.(check_index c) then begin
          Format.fprintf ppf "%-10s : %d checks, %d violation%s@."
            (check_name c) evals viols
            (if viols = 1 then "" else "s");
          match first with
          | None -> ()
          | Some v ->
            Format.fprintf ppf "             %a@." pp_violation v;
            List.iter
              (fun ((e : prov_entry), fresh) ->
                Format.fprintf ppf
                  "             msg #%d %d->%d sent=%.6f delay=%.6f%s%s@." e.id
                  e.src e.dst e.sent e.delay
                  (if fresh then "" else " (stale)")
                  (match e.faults with
                  | [] -> ""
                  | fs -> " faults=" ^ String.concat "," fs))
              v.provenance
        end)
      (results t);
    Format.fprintf ppf "total      : %d checks, %d violations@."
      (checks_performed t) (violations_total t)
  end
