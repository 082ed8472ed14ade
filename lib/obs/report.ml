module MSeries = Csync_metrics.Series
module Histogram = Csync_metrics.Histogram
module Table = Csync_metrics.Table

type hist_rec = Record.hist_rec = {
  lo : float;
  hi : float;
  per_decade : int option;
  counts : int array;
  underflow : int;
  overflow : int;
  invalid : int;
  total : int;
}

type span_rec = Record.span_rec = { count : int; total_s : float; max_s : float }

type monitor_rec = Record.monitor_rec = {
  checks : int;
  violations : int;
  first : Json.t option;
}

type t = {
  manifest : Json.t option;
  counters : (string * int) list;
  gauges : (string * float) list;
  series : (string * float array * float array) list;
  hists : (string * hist_rec) list;
  spans : (string * span_rec) list;
  events : (string * Json.t) list;
  monitors : (string * monitor_rec) list;
  warnings : string list;
}

(* ---------- reading ----------

   A btrace file streams record-at-a-time into the accumulator below
   ({!Btrace.fold_file}), so a million-process trace costs its decoded
   records, not its bytes. *)

(* Manifest fields this reader understands; anything else came from a
   newer writer and is skipped with a warning rather than a failure. *)
let known_manifest_fields =
  [
    "record"; "schema"; "target"; "seed"; "jobs"; "quick"; "params"; "git_rev";
    "captured_unix"; "node"; "nodes";
  ]

let manifest_warnings where j =
  match j with
  | Json.Obj fields ->
    List.filter_map
      (fun (k, _) ->
        if List.mem k known_manifest_fields then None
        else
          Some (Printf.sprintf "%s: skipped unknown manifest field %S" where k))
      fields
  | _ -> []

let empty =
  {
    manifest = None;
    counters = [];
    gauges = [];
    series = [];
    hists = [];
    spans = [];
    events = [];
    monitors = [];
    warnings = [];
  }

(* Accumulate one record; [where] names its position ("record 7") for
   warnings. *)
let add_record ~where acc (r : Record.t) =
  match r with
  | Record.Manifest j ->
    {
      acc with
      manifest = Some j;
      warnings = List.rev_append (manifest_warnings where j) acc.warnings;
    }
  | Record.Counter (n, v) -> { acc with counters = (n, v) :: acc.counters }
  | Record.Gauge (n, v) -> { acc with gauges = (n, v) :: acc.gauges }
  | Record.Series (n, xs, ys) -> { acc with series = (n, xs, ys) :: acc.series }
  | Record.Hist (n, h) -> { acc with hists = (n, h) :: acc.hists }
  | Record.Span (n, s) -> { acc with spans = (n, s) :: acc.spans }
  | Record.Event (n, f) -> { acc with events = (n, f) :: acc.events }
  | Record.Monitor (n, m) -> { acc with monitors = (n, m) :: acc.monitors }
  | Record.Unknown (kind, _) ->
    {
      acc with
      warnings =
        Printf.sprintf "%s: skipped unknown record kind %S" where kind
        :: acc.warnings;
    }

let add_numbered (acc, i) r =
  (add_record ~where:(Printf.sprintf "record %d" i) acc r, i + 1)

let finalize acc =
  {
    acc with
    counters = List.rev acc.counters;
    gauges = List.rev acc.gauges;
    series = List.rev acc.series;
    hists = List.rev acc.hists;
    spans = List.rev acc.spans;
    events = List.rev acc.events;
    monitors = List.rev acc.monitors;
    warnings = List.rev acc.warnings;
  }

let of_records records =
  finalize (fst (List.fold_left add_numbered (empty, 1) records))

let of_file path =
  Btrace.fold_file path ~init:(empty, 1) ~f:add_numbered
  |> Result.map (fun (acc, _) -> finalize acc)

(* ---------- accessors (the diff renderer reads traces through these) ---------- *)

let manifest t = t.manifest

let counters t = t.counters

let gauges t = t.gauges

let series t = t.series

let hists t = t.hists

let spans t = t.spans

let events t = t.events

let monitors t = t.monitors

let warnings t = t.warnings

(* ---------- name plumbing ---------- *)

let split_name = Record.split_name

let labels t =
  let add acc name =
    let l, _ = split_name name in
    if List.mem l acc then acc else l :: acc
  in
  let acc = List.fold_left (fun acc (n, _) -> add acc n) [] t.counters in
  let acc = List.fold_left (fun acc (n, _) -> add acc n) acc t.gauges in
  let acc = List.fold_left (fun acc (n, _, _) -> add acc n) acc t.series in
  let acc = List.fold_left (fun acc (n, _) -> add acc n) acc t.hists in
  List.sort compare acc

let proc_adj_pid base =
  (* "proc.<pid>.adj" -> Some pid *)
  if String.starts_with ~prefix:"proc." base then
    let rest = String.sub base 5 (String.length base - 5) in
    match String.index_opt rest '.' with
    | Some i when String.sub rest i (String.length rest - i) = ".adj" ->
      int_of_string_opt (String.sub rest 0 i)
    | _ -> None
  else None

(* ---------- sections ---------- *)

let section ppf title = Format.fprintf ppf "@.== %s ==@.@." title

let render_manifest ppf j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_float in
  let b k = Option.bind (Json.member k j) Json.to_bool in
  section ppf "Manifest";
  Format.fprintf ppf "target: %s@." (Option.value (str "target") ~default:"?");
  (match num "seed" with
  | Some s -> Format.fprintf ppf "seed: %.0f@." s
  | None -> ());
  (match num "jobs" with
  | Some s -> Format.fprintf ppf "jobs: %.0f@." s
  | None -> ());
  (match b "quick" with
  | Some q -> Format.fprintf ppf "quick: %b@." q
  | None -> ());
  (match str "git_rev" with
  | Some r -> Format.fprintf ppf "git rev: %s@." r
  | None -> ());
  (match Json.member "params" j with
  | None -> ()
  | Some p ->
    let pf k =
      match Option.bind (Json.member k p) Json.to_float with
      | Some v -> Format.fprintf ppf "  %s = %g@." k v
      | None -> ()
    in
    Format.fprintf ppf "params:@.";
    List.iter pf
      [ "n"; "f"; "rho"; "delta"; "eps"; "beta"; "big_p"; "t0";
        "gamma"; "adjustment_bound" ])

let render_skews ppf ~focus t =
  let skews =
    List.filter
      (fun (name, xs, _) ->
        let l, base = split_name name in
        Array.length xs > 0
        && (base = "run.skew" || base = "run.clean_skew")
        && (focus = "" || l = focus))
      t.series
  in
  if skews <> [] then begin
    section ppf "Skew timelines";
    List.iter
      (fun (name, xs, ys) ->
        let s = MSeries.of_arrays ~label:name xs ys in
        let mx = Array.fold_left Float.max ys.(0) ys in
        let last = ys.(Array.length ys - 1) in
        Format.fprintf ppf "%-48s %s@."
          (Printf.sprintf "%s (max %.3g, final %.3g)" name mx last)
          (MSeries.sparkline s))
      skews;
    Format.fprintf ppf
      "@.(y = max pairwise skew across the clean set at each sample time)@."
  end

let render_adj ppf ~focus t =
  let per_pid =
    List.filter_map
      (fun (name, xs, ys) ->
        let l, base = split_name name in
        if l <> focus then None
        else
          match proc_adj_pid base with
          | Some pid -> Some (pid, xs, ys)
          | None -> None)
      t.series
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  if per_pid <> [] then begin
    Format.fprintf ppf "@.";
    let rounds =
      List.concat_map (fun (_, xs, _) -> Array.to_list xs) per_pid
      |> List.sort_uniq compare
    in
    let columns =
      "round" :: List.map (fun (pid, _, _) -> Printf.sprintf "p%d" pid) per_pid
    in
    let title =
      if focus = "" then "ADJ per round" else "ADJ per round — " ^ focus
    in
    let table = Table.make ~title ~columns () in
    let table =
      List.fold_left
        (fun table r ->
          let row =
            Printf.sprintf "%.0f" r
            :: List.map
                 (fun (_, xs, ys) ->
                   let cell = ref "" in
                   Array.iteri (fun i x -> if x = r then cell := Table.cell_e ys.(i)) xs;
                   !cell)
                 per_pid
          in
          Table.add_row table row)
        table rounds
    in
    Table.render ppf table
  end

let rebuild_hist (h : hist_rec) =
  Histogram.of_counts ?per_decade:h.per_decade ~lo:h.lo ~hi:h.hi ~counts:h.counts
    ~underflow:h.underflow ~overflow:h.overflow ~invalid:h.invalid ~total:h.total
    ()

let render_hists ppf ~focus t =
  let shown (name, h) =
    let l, base = split_name name in
    (base = "net.delay" || base = "scale.link_delay" || base = "scale.local_skew")
    && (focus = "" || l = focus)
    && h.total > 0
  in
  let aggregate = List.filter shown t.hists in
  if aggregate <> [] then begin
    section ppf "Delay and skew histograms";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "%s (%d samples%s)@." name h.total
          (match h.per_decade with
          | None -> ""
          | Some pd -> Printf.sprintf ", log %d/decade" pd);
        Histogram.render ppf (rebuild_hist h);
        Format.fprintf ppf "@.")
      aggregate;
    let per_link =
      List.length
        (List.filter
           (fun (name, _) ->
             let _, base = split_name name in
             String.starts_with ~prefix:"net.delay." base)
           t.hists)
    in
    if per_link > 0 then
      Format.fprintf ppf "(%d per-link histograms captured in the trace)@."
        per_link
  end

(* The scale pipeline's phase spans ("profile.<phase>"), in pipeline
   order; phases a trace lacks are simply absent from the table. *)
let phase_order = [ "fill"; "sweep"; "apply"; "advance"; "checksum" ]

let phase_rank p =
  let rec go i = function
    | [] -> List.length phase_order
    | q :: rest -> if q = p then i else go (i + 1) rest
  in
  go 0 phase_order

let render_profile ppf ~focus t =
  let phases =
    List.filter_map
      (fun (name, s) ->
        let l, base = split_name name in
        if
          (focus = "" || l = focus)
          && String.starts_with ~prefix:"profile." base
          && s.count > 0
        then Some (String.sub base 8 (String.length base - 8), s)
        else None)
      t.spans
    |> List.sort (fun (a, _) (b, _) -> compare (phase_rank a, a) (phase_rank b, b))
  in
  if phases <> [] then begin
    section ppf "Round-phase profile";
    let grand = List.fold_left (fun acc (_, s) -> acc +. s.total_s) 0. phases in
    let table =
      Table.make
        ~title:
          (if focus = "" then "Per-phase wall time"
           else "Per-phase wall time — " ^ focus)
        ~columns:[ "phase"; "calls"; "total (ms)"; "mean (ns)"; "max (ns)"; "share" ]
        ()
    in
    let table =
      List.fold_left
        (fun table (p, s) ->
          let share = if grand > 0. then s.total_s /. grand else 0. in
          let bar = String.make (int_of_float (share *. 24.)) '#' in
          Table.add_row table
            [
              p;
              string_of_int s.count;
              Printf.sprintf "%.3f" (s.total_s *. 1e3);
              Printf.sprintf "%.0f" (s.total_s *. 1e9 /. float_of_int s.count);
              Printf.sprintf "%.0f" (s.max_s *. 1e9);
              Printf.sprintf "%3.0f%% %s" (share *. 100.) bar;
            ])
        table phases
    in
    let g base' =
      List.find_map
        (fun (name, v) ->
          let l, base = split_name name in
          if base = base' && (focus = "" || l = focus) then Some v else None)
        t.gauges
    in
    let table =
      match (g "sim.queue_depth_hw", g "sim.queue_occupancy_hw") with
      | None, None -> table
      | depth, occ ->
        let part label v =
          match v with Some v -> Printf.sprintf "%s %.0f" label v | None -> ""
        in
        Table.note table
          (String.trim
             (Printf.sprintf "engine high-water: %s %s"
                (part "queue depth" depth)
                (part " occupied slots" occ)))
    in
    Table.render ppf table
  end

let render_pool ppf t =
  let workers =
    List.filter_map
      (fun (name, s) ->
        let _, base = split_name name in
        if String.starts_with ~prefix:"pool.worker" base then
          Option.map
            (fun w -> (w, s))
            (int_of_string_opt
               (String.sub base 11 (String.length base - 11)))
        else None)
      t.spans
    |> List.sort compare
  in
  if workers <> [] then begin
    Format.fprintf ppf "@.";
    let table =
      Table.make ~title:"Pool utilization (per-worker cell timings)"
        ~columns:[ "worker"; "tasks"; "busy (s)"; "max task (s)" ] ()
    in
    let table =
      List.fold_left
        (fun table (w, s) ->
          Table.add_row table
            [
              string_of_int w;
              string_of_int s.count;
              Table.cell_e s.total_s;
              Table.cell_e s.max_s;
            ])
        table workers
    in
    let busy = List.map (fun (_, s) -> s.total_s) workers in
    let mx = List.fold_left Float.max 0. busy in
    let mean = List.fold_left ( +. ) 0. busy /. float_of_int (List.length busy) in
    let table =
      if mean > 0. then
        Table.note table
          (Printf.sprintf "imbalance (max/mean busy): %s" (Table.cell_ratio (mx /. mean)))
      else table
    in
    Table.render ppf table
  end

let render_chaos ppf t =
  let chaos_counters =
    List.filter
      (fun (name, v) ->
        let _, base = split_name name in
        String.starts_with ~prefix:"chaos." base && v > 0)
      t.counters
  in
  let injections =
    List.filter
      (fun (name, _) ->
        let _, base = split_name name in
        base = "chaos.inject")
      t.events
  in
  if chaos_counters <> [] || injections <> [] then begin
    section ppf "Chaos ledger";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "%-40s %d@." name v)
      chaos_counters;
    let n = List.length injections in
    if n > 0 then begin
      Format.fprintf ppf "@.injected faults (%d recorded):@." n;
      let show = 20 in
      List.iteri
        (fun i (_, fields) ->
          if i < show then Format.fprintf ppf "  %s@." (Json.to_string fields))
        injections;
      if n > show then Format.fprintf ppf "  ... %d more@." (n - show)
    end
  end

let render_check ppf t =
  let find base' =
    List.find_opt
      (fun (name, xs, _) ->
        let _, base = split_name name in
        base = base' && Array.length xs > 0)
      t.series
  in
  match (find "check.frontier", find "check.dedup_rate") with
  | None, None -> ()
  | frontier, dedup ->
    section ppf "Exploration";
    (match frontier with
    | Some (name, xs, ys) ->
      Format.fprintf ppf "%-32s %s  (depths 0..%.0f, peak %.0f)@." name
        (MSeries.sparkline (MSeries.of_arrays ~label:name xs ys))
        xs.(Array.length xs - 1)
        (Array.fold_left Float.max 0. ys)
    | None -> ());
    (match dedup with
    | Some (name, xs, ys) ->
      let last = ys.(Array.length ys - 1) in
      Format.fprintf ppf "%-32s %s  (final %.1f%%)@." name
        (MSeries.sparkline (MSeries.of_arrays ~label:name xs ys))
        (100. *. last)
    | None -> ())

let render_monitors ppf t =
  if t.monitors <> [] then begin
    section ppf "Monitors";
    List.iter
      (fun (name, (m : monitor_rec)) ->
        Format.fprintf ppf "%-12s %d checks, %d violation%s%s@." name m.checks
          m.violations
          (if m.violations = 1 then "" else "s")
          (if m.violations = 0 && m.checks > 0 then "  [ok]" else "");
        match m.first with
        | None -> ()
        | Some f ->
          let g k = Option.bind (Json.member k f) Json.to_float in
          (match (g "time", g "measured", g "bound") with
          | Some time, Some measured, Some bound ->
            Format.fprintf ppf "  first violation at t=%.6f: %.6g > %.6g@." time
              measured bound
          | _ -> ());
          (match Option.bind (Json.member "provenance" f) Json.to_list with
          | Some (_ :: _ as prov) ->
            Format.fprintf ppf "  provenance (%d messages):@." (List.length prov);
            List.iter
              (fun p -> Format.fprintf ppf "    %s@." (Json.to_string p))
              prov
          | _ -> ()))
      t.monitors
  end

let render_warnings ppf t =
  match t.warnings with
  | [] -> ()
  | ws ->
    Format.fprintf ppf "@.(%d reader warning%s)@." (List.length ws)
      (if List.length ws = 1 then "" else "s");
    List.iter (fun w -> Format.fprintf ppf "  %s@." w) ws

let render_residual ppf t =
  if t.counters <> [] then begin
    section ppf "Counters";
    List.iter (fun (name, v) -> Format.fprintf ppf "%-48s %d@." name v) t.counters
  end;
  if t.gauges <> [] then begin
    section ppf "Gauges";
    List.iter (fun (name, v) -> Format.fprintf ppf "%-48s %g@." name v) t.gauges
  end

(* ---------- fleet: measured vs predicted skew ----------

   A merged fleet trace (built by {!Collect}) carries, per node [p<i>],
   the series [p<i>/fleet.offset.p<j>]: at each reception on node i of a
   timestamp from node j, the sample [own_reading - peer_value].  That
   one-way offset is (true skew i-j) + (transit delay); pairing the two
   directions cancels the symmetric part of the delay:

     skew(i,j) ~ (offset_ij - offset_ji) / 2

   leaving only delay *asymmetry* as noise, which the median over the
   converged tail suppresses further.  The bound to compare against is
   gamma (and per-hop kappa, for gradient topologies) from the fleet
   manifest — baked in by the emitter, which knows the run's params. *)

type fleet_pair = {
  node_a : int;
  node_b : int;
  pair_samples : int;  (* total samples across both directions *)
  offset_ab : float;  (* median tail offset measured at a from b *)
  offset_ba : float;
  measured : float;  (* |offset_ab - offset_ba| / 2 *)
}

type fleet = {
  fleet_nodes : int list;
  fleet_gamma : float option;
  fleet_kappa : float option;
  fleet_pairs : fleet_pair list;
  fleet_max : float;  (* max measured over pairs, 0 if none *)
  fleet_unpaired : (int * int) list;  (* directions lacking a reverse *)
}

let parse_node_label l =
  if String.length l >= 2 && l.[0] = 'p' then
    int_of_string_opt (String.sub l 1 (String.length l - 1))
  else None

let fleet_offset_peer base =
  let p = "fleet.offset.p" in
  if String.starts_with ~prefix:p base then
    int_of_string_opt
      (String.sub base (String.length p) (String.length base - String.length p))
  else None

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Early samples predate convergence (nodes start with injected
   offsets); the converged tail is what the bound speaks about. *)
let tail_median samples =
  let n = Array.length samples in
  if n >= 8 then median (Array.sub samples (n / 2) (n - (n / 2)))
  else median samples

let fleet t =
  let dir : (int * int, float list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, _, ys) ->
      let l, base = split_name name in
      match (parse_node_label l, fleet_offset_peer base) with
      | Some i, Some j when i <> j ->
        (* Series records are already time-ordered in the merged trace;
           accumulate preserving that order. *)
        let prev = Option.value (Hashtbl.find_opt dir (i, j)) ~default:[] in
        Hashtbl.replace dir (i, j)
          (Array.fold_left (fun acc y -> y :: acc) prev ys)
      | _ -> ())
    t.series;
  let directions =
    Hashtbl.fold (fun k v acc -> (k, Array.of_list (List.rev v)) :: acc) dir []
    |> List.sort compare
  in
  let lookup i j = List.assoc_opt (i, j) directions in
  let pairs, unpaired =
    List.fold_left
      (fun (pairs, unpaired) ((i, j), fwd) ->
        if i > j then (pairs, unpaired)  (* handled from the (i<j) side *)
        else
          match lookup j i with
          | None -> (pairs, (i, j) :: unpaired)
          | Some bwd ->
            let offset_ab = tail_median fwd in
            let offset_ba = tail_median bwd in
            let p =
              {
                node_a = i;
                node_b = j;
                pair_samples = Array.length fwd + Array.length bwd;
                offset_ab;
                offset_ba;
                measured = Float.abs (offset_ab -. offset_ba) /. 2.;
              }
            in
            (p :: pairs, unpaired))
      ([], [])
      directions
  in
  let unpaired =
    List.filter (fun (i, j) -> lookup j i = None) unpaired
    @ List.filter_map
        (fun ((i, j), _) ->
          if i > j && lookup j i = None then Some (i, j) else None)
        directions
  in
  let param k =
    Option.bind t.manifest (fun m ->
        Option.bind (Json.member "params" m) (fun p ->
            Option.bind (Json.member k p) Json.to_float))
  in
  let nodes =
    match
      Option.bind t.manifest (fun m ->
          Option.bind (Json.member "nodes" m) Json.int_array)
    with
    | Some a -> Array.to_list a
    | None ->
      List.filter_map
        (fun l -> parse_node_label l)
        (labels t)
      |> List.sort_uniq compare
  in
  {
    fleet_nodes = nodes;
    fleet_gamma = param "gamma";
    fleet_kappa = param "kappa";
    fleet_pairs = List.rev pairs;
    fleet_max =
      List.fold_left (fun acc p -> Float.max acc p.measured) 0. pairs;
    fleet_unpaired = List.sort_uniq compare unpaired;
  }

(* Emitters re-dump cumulative counters and gauges with every flush, so
   the current value is the LAST occurrence in trace order — assoc_opt
   would return the stalest one. *)
let assoc_last key l =
  List.fold_left (fun acc (k, v) -> if k = key then Some v else acc) None l

let fleet_node_row t ~latest_ns i =
  let p = Printf.sprintf "p%d" i in
  let c name = assoc_last (p ^ "/" ^ name) t.counters in
  let g name = assoc_last (p ^ "/" ^ name) t.gauges in
  let int_cell v = match v with Some v -> string_of_int v | None -> "-" in
  let round =
    match g "fleet.round" with Some r -> Printf.sprintf "%.0f" r | None -> "-"
  in
  let last_seen =
    match g "collect.last_seen_ns" with
    | Some ns when latest_ns > 0. ->
      Printf.sprintf "-%.3fs" (Float.max 0. ((latest_ns -. ns) /. 1e9))
    | _ -> "-"
  in
  [
    p;
    round;
    int_cell (c "collect.frames");
    int_cell (c "collect.records");
    int_cell (c "collect.gaps");
    int_cell (c "collect.lost");
    int_cell (c "collect.resets");
    int_cell (c "emit.drops");
    last_seen;
  ]

let render_fleet_nodes ppf t f =
  if f.fleet_nodes <> [] then begin
    let latest_ns =
      List.fold_left
        (fun acc (name, v) ->
          let _, base = split_name name in
          if base = "collect.last_seen_ns" then Float.max acc v else acc)
        0. t.gauges
    in
    let table =
      Table.make ~title:"Fleet nodes"
        ~columns:
          [
            "node"; "round"; "frames"; "records"; "gaps"; "lost"; "resets";
            "drops"; "last-seen";
          ]
        ()
    in
    let table =
      List.fold_left
        (fun table i -> Table.add_row table (fleet_node_row t ~latest_ns i))
        table f.fleet_nodes
    in
    Table.render ppf table
  end

let render_fleet ppf t =
  (match t.manifest with
  | Some j -> render_manifest ppf j
  | None -> Format.fprintf ppf "(no manifest record in trace)@.");
  let f = fleet t in
  section ppf "Fleet skew: measured vs predicted";
  if f.fleet_pairs = [] then
    Format.fprintf ppf "(no paired exchanged-timestamp samples in trace)@."
  else begin
    let bound_cell =
      match f.fleet_gamma with Some g -> Table.cell_e g | None -> "-"
    in
    let table =
      Table.make ~title:"Measured pairwise skew (delay-cancelling pairing)"
        ~columns:
          [
            "pair"; "samples"; "offset a->b"; "offset b->a"; "measured";
            "bound gamma"; "verdict";
          ]
        ()
    in
    let table =
      List.fold_left
        (fun table p ->
          let verdict =
            match f.fleet_gamma with
            | Some g -> if p.measured <= g then "ok" else "VIOLATION"
            | None -> "-"
          in
          Table.add_row table
            [
              Printf.sprintf "p%d-p%d" p.node_a p.node_b;
              string_of_int p.pair_samples;
              Table.cell_e p.offset_ab;
              Table.cell_e p.offset_ba;
              Table.cell_e p.measured;
              bound_cell;
              verdict;
            ])
        table f.fleet_pairs
    in
    Table.render ppf table;
    (match f.fleet_gamma with
    | Some g ->
      Format.fprintf ppf "@.fleet max measured skew %.3g vs gamma %.3g  %s@."
        f.fleet_max g
        (if f.fleet_max <= g then "[within gamma]" else "[EXCEEDS gamma]");
      List.iter
        (fun p ->
          if p.measured > g then
            Format.fprintf ppf
              "VIOLATION: pair p%d-p%d measured %.3g > gamma %.3g@." p.node_a
              p.node_b p.measured g)
        f.fleet_pairs
    | None ->
      Format.fprintf ppf
        "@.(no gamma in fleet manifest; measured max %.3g unchecked)@."
        f.fleet_max);
    match f.fleet_kappa with
    | Some k ->
      Format.fprintf ppf
        "per-hop gradient allowance kappa = %.3g (single-hop pairs are \
         governed by gamma)@."
        k
    | None -> ()
  end;
  List.iter
    (fun (i, j) ->
      Format.fprintf ppf
        "(one-way samples p%d<-p%d lack the reverse direction; skew not \
         computed)@."
        i j)
    f.fleet_unpaired;
  render_fleet_nodes ppf t f;
  render_monitors ppf t;
  render_warnings ppf t

let default_focus t =
  match
    List.find_opt
      (fun (name, _, _) ->
        let _, base = split_name name in
        base = "run.skew" || base = "run.clean_skew")
      t.series
  with
  | Some (name, _, _) -> fst (split_name name)
  | None -> (
    (* Run-level metrics (the outer pool's) are unlabeled; prefer a cell. *)
    match List.filter (fun l -> l <> "") (labels t) with
    | l :: _ -> l
    | [] -> "")

let render ?focus ppf t =
  (match t.manifest with
  | Some j -> render_manifest ppf j
  | None -> Format.fprintf ppf "(no manifest record in trace)@.");
  let ls = labels t in
  let focus = match focus with Some f -> f | None -> default_focus t in
  (match ls with
  | [] | [ _ ] -> ()
  | _ ->
    section ppf "Cells";
    List.iter
      (fun l ->
        Format.fprintf ppf "%s %s@."
          (if l = focus then "*" else " ")
          (if l = "" then "(unlabeled)" else l))
      ls;
    Format.fprintf ppf "@.(* = focused cell; pick another with --label)@.");
  render_skews ppf ~focus t;
  render_adj ppf ~focus t;
  render_hists ppf ~focus t;
  render_profile ppf ~focus t;
  render_pool ppf t;
  render_chaos ppf t;
  render_monitors ppf t;
  render_check ppf t;
  render_residual ppf t;
  render_warnings ppf t
