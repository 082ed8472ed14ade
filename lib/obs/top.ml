(* csync top — a live terminal view over a trace file.

   top is a trace *viewer*, not a second telemetry channel: each refresh
   re-reads the file csync trace is writing (or a finished one) through
   {!Report.of_file}, folding it into a {!Report.t} in constant memory,
   and redraws one frame in place with an ANSI clear.  A file that
   currently ends mid-record fails that read; the view keeps the last
   good frame with a "capture in progress" note, and a later refresh
   reads the record whole. *)

module MSeries = Csync_metrics.Series

let split_name = Record.split_name

(* ---------- frame model ---------- *)

(* Round-driven series, in preference order for the round counter. *)
let round_bases =
  [ "scale.events_per_round"; "run.skew"; "run.clean_skew"; "check.frontier" ]

(* Series worth a sparkline, in display order. *)
let spark_bases =
  [
    "run.skew"; "run.clean_skew"; "scale.spread"; "scale.local_skew_max";
    "scale.events_per_round"; "check.frontier";
  ]

let find_series t ~focus base' =
  List.find_opt
    (fun (name, xs, _) ->
      let l, base = split_name name in
      base = base' && Array.length xs > 0 && (focus = "" || l = focus))
    (Report.series t)

let round_of t ~focus =
  List.find_map
    (fun b ->
      Option.map
        (fun (_, xs, _) -> int_of_float xs.(Array.length xs - 1))
        (find_series t ~focus b))
    round_bases

let total_events t =
  List.fold_left
    (fun acc (name, v) ->
      let _, base = split_name name in
      if base = "scale.events" || base = "sim.events" then acc + v else acc)
    0 (Report.counters t)

let phases t ~focus =
  List.filter_map
    (fun (name, (s : Record.span_rec)) ->
      let l, base = split_name name in
      if (focus = "" || l = focus) && String.starts_with ~prefix:"profile." base
         && s.count > 0
      then Some (String.sub base 8 (String.length base - 8), s)
      else None)
    (Report.spans t)
  |> List.sort (fun (a, _) (b, _) ->
         compare (Report.phase_rank a, a) (Report.phase_rank b, b))

let fault_counters t =
  List.filter
    (fun (name, v) ->
      let _, base = split_name name in
      v > 0
      && (String.starts_with ~prefix:"chaos." base
         || String.starts_with ~prefix:"net.tamper" base
         || base = "net.collision_dropped" || base = "obs.events_dropped"))
    (Report.counters t)

let default_focus t =
  match
    List.find_opt
      (fun (name, _, _) ->
        let _, base = split_name name in
        List.mem base spark_bases)
      (Report.series t)
  with
  | Some (name, _, _) -> fst (split_name name)
  | None -> ( match Report.labels t with l :: _ -> l | [] -> "")

(* ---------- frame rendering ---------- *)

(* One line of monitor verdicts, shared by both panels. *)
let monitor_lights b mons =
  List.iteri
    (fun i (name, (m : Record.monitor_rec)) ->
      Buffer.add_string b (if i = 0 then "monitors  " else "   ");
      Buffer.add_string b
        (if m.violations = 0 then Printf.sprintf "[ok]   %s (%d checks)" name m.checks
         else
           Printf.sprintf "[FAIL] %s (%d/%d violations)" name m.violations
             m.checks))
    mons;
  Buffer.add_char b '\n'

let bar ~width share =
  let full = int_of_float (Float.round (share *. float_of_int width)) in
  let full = max 0 (min width full) in
  String.make full '#' ^ String.make (width - full) '.'

let header_line t path =
  let m = Report.manifest t in
  let str k = Option.bind m (fun j -> Option.bind (Json.member k j) Json.to_str) in
  let num k =
    Option.bind m (fun j -> Option.bind (Json.member k j) Json.to_float)
  in
  Printf.sprintf "csync top — %s   seed %s   jobs %s   %s"
    (Option.value (str "target") ~default:"?")
    (match num "seed" with Some s -> Printf.sprintf "%.0f" s | None -> "?")
    (match num "jobs" with Some j -> Printf.sprintf "%.0f" j | None -> "?")
    path

let frame ?focus ?(width = 32) t ~path =
  let focus = match focus with Some f -> f | None -> default_focus t in
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%s\n" (header_line t path);
  if focus <> "" then pr "cell %s\n" focus;
  (match (round_of t ~focus, total_events t) with
  | None, 0 -> ()
  | r, ev ->
    pr "round %s   events %d\n"
      (match r with Some r -> string_of_int r | None -> "?")
      ev);
  Buffer.add_char b '\n';
  (* sparklines *)
  let sparks =
    List.filter_map
      (fun base ->
        Option.map
          (fun (name, xs, ys) ->
            let s = MSeries.of_arrays ~label:name xs ys in
            let last = ys.(Array.length ys - 1) in
            let mx = Array.fold_left Float.max ys.(0) ys in
            Printf.sprintf "%-28s %s  last %.3g  max %.3g"
              (snd (split_name name))
              (MSeries.sparkline s) last mx)
          (find_series t ~focus base))
      spark_bases
  in
  if sparks <> [] then begin
    List.iter (fun l -> pr "%s\n" l) sparks;
    Buffer.add_char b '\n'
  end;
  (* phase bars *)
  let ph = phases t ~focus in
  if ph <> [] then begin
    let grand = List.fold_left (fun acc (_, s) -> acc +. s.Record.total_s) 0. ph in
    pr "round phases (total %.1f ms)\n" (grand *. 1e3);
    List.iter
      (fun (p, (s : Record.span_rec)) ->
        let share = if grand > 0. then s.total_s /. grand else 0. in
        pr "  %-12s %s %5.1f%%  %8.3f ms\n" p (bar ~width share)
          (share *. 100.) (s.total_s *. 1e3))
      ph;
    Buffer.add_char b '\n'
  end;
  (* monitor lights *)
  let mons = Report.monitors t in
  if mons <> [] then begin
    monitor_lights b mons;
    Buffer.add_char b '\n'
  end;
  (* drop / fault counters *)
  let faults = fault_counters t in
  if faults <> [] then begin
    pr "faults and drops\n";
    List.iter (fun (name, v) -> pr "  %-34s %d\n" name v) faults;
    Buffer.add_char b '\n'
  end;
  Buffer.contents b

(* ---------- fleet panel ---------- *)

(* One row per live node of a merged fleet trace (csync top --fleet):
   round, worst measured pair skew involving the node, stream
   accounting, and how far behind the freshest node its stream is. *)
let fleet_frame ?width:_ t ~path =
  let f = Report.fleet t in
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "csync top — fleet   %d node%s   %s\n"
    (List.length f.Report.fleet_nodes)
    (if List.length f.Report.fleet_nodes = 1 then "" else "s")
    path;
  (match f.Report.fleet_gamma with
  | Some g ->
    pr "max measured skew %.3g / gamma %.3g  %s\n" f.Report.fleet_max g
      (if f.Report.fleet_max <= g then "[ok]" else "[EXCEEDS]")
  | None ->
    if f.Report.fleet_pairs <> [] then
      pr "max measured skew %.3g (no gamma in manifest)\n" f.Report.fleet_max);
  Buffer.add_char b '\n';
  let counters = Report.counters t in
  let gauges = Report.gauges t in
  let latest_ns =
    List.fold_left
      (fun acc (name, v) ->
        let _, base = split_name name in
        if base = "collect.last_seen_ns" then Float.max acc v else acc)
      0. gauges
  in
  let node_skew i =
    (* Float.max propagates nan, so seed the fold explicitly. *)
    List.fold_left
      (fun acc (p : Report.fleet_pair) ->
        if p.Report.node_a = i || p.Report.node_b = i then
          if Float.is_nan acc then p.Report.measured
          else Float.max acc p.Report.measured
        else acc)
      nan f.Report.fleet_pairs
  in
  pr "%-6s %-7s %-12s %-8s %-8s %-6s %-6s %-7s %s\n" "node" "round" "skew"
    "frames" "records" "gaps" "drops" "resets" "last-seen";
  List.iter
    (fun i ->
      let p = Printf.sprintf "p%d" i in
      (* Per-flush re-dumps mean the current value is the last
         occurrence in trace order, not the first. *)
      let last key l =
        List.fold_left (fun acc (k, v) -> if k = key then Some v else acc) None l
      in
      let c name = last (p ^ "/" ^ name) counters in
      let g name = last (p ^ "/" ^ name) gauges in
      let skew = node_skew i in
      pr "%-6s %-7s %-12s %-8s %-8s %-6s %-6s %-7s %s\n" p
        (match g "fleet.round" with
        | Some r -> Printf.sprintf "%.0f" r
        | None -> "-")
        (if Float.is_nan skew then "-" else Printf.sprintf "%.3g" skew)
        (match c "collect.frames" with Some v -> string_of_int v | None -> "-")
        (match c "collect.records" with Some v -> string_of_int v | None -> "-")
        (match c "collect.gaps" with Some v -> string_of_int v | None -> "-")
        (match c "emit.drops" with Some v -> string_of_int v | None -> "-")
        (match c "collect.resets" with Some v -> string_of_int v | None -> "-")
        (match g "collect.last_seen_ns" with
        | Some ns when latest_ns > 0. ->
          Printf.sprintf "-%.3fs" (Float.max 0. ((latest_ns -. ns) /. 1e9))
        | _ -> "-"))
    f.Report.fleet_nodes;
  (* monitor lights, shared with the single-process panel *)
  let mons = Report.monitors t in
  if mons <> [] then begin
    Buffer.add_char b '\n';
    monitor_lights b mons
  end;
  Buffer.contents b

(* ---------- the watch loop ---------- *)

let clear_screen = "\027[2J\027[H"

(* A btrace being written can legitimately end mid-record; render the
   last good frame (or a waiting notice) instead of failing. *)
let load path =
  match Report.of_file path with
  | Ok t -> Ok t
  | Error e -> Error e
  | exception Sys_error e -> Error e

let watch ?focus ?(interval = 1.0) ?(fleet = false) ~once path =
  let interval = Float.max 0.1 interval in
  let render t = if fleet then fleet_frame t ~path else frame ?focus t ~path in
  let last = ref None in
  let draw () =
    match load path with
    | Ok t ->
      last := Some t;
      Some (render t)
    | Error e -> (
      match !last with
      | Some t ->
        Some (render t ^ Printf.sprintf "(capture in progress: %s)\n" e)
      | None -> Some (Printf.sprintf "%s\nwaiting for trace data: %s\n" path e))
  in
  if once then (
    match load path with
    | Error e -> Error e
    | Ok t ->
      print_string (render t);
      Ok ())
  else begin
    let rec loop () =
      (match draw () with
      | Some f ->
        print_string clear_screen;
        print_string f;
        print_string
          (Printf.sprintf "(refreshing every %gs — ctrl-c to quit)\n" interval);
        flush stdout
      | None -> ());
      Unix.sleepf interval;
      loop ()
    in
    loop ()
  end
