(* Cross-run trace diffing.  Everything aligns by name: manifests by
   field, metrics by their full "<label>/<base>" name, monitors by check
   name.  The renderer only reports differences (plus a coverage section
   for names present in just one trace), so an identical pair reads as a
   one-line verdict. *)

let section ppf title = Format.fprintf ppf "@.== %s ==@.@." title

let split_name = Record.split_name

(* ---------- manifest ---------- *)

(* Capture instant, git revision and worker count legitimately differ
   between otherwise identical runs (jobs never changes what a run
   computes); everything else in the manifest is run identity. *)
let volatile_manifest_fields = Record.volatile_manifest_fields

let manifest_core m =
  match m with
  | Some (Json.Obj fields) ->
    List.filter (fun (k, _) -> not (List.mem k volatile_manifest_fields)) fields
  | Some _ | None -> []

let manifest_diffs a b =
  let fa = manifest_core (Report.manifest a) in
  let fb = manifest_core (Report.manifest b) in
  let keys =
    List.sort_uniq compare (List.map fst fa @ List.map fst fb)
  in
  List.filter_map
    (fun k ->
      let va = List.assoc_opt k fa and vb = List.assoc_opt k fb in
      if va = vb then None else Some (k, va, vb))
    keys

let pp_opt_json ppf = function
  | None -> Format.fprintf ppf "(absent)"
  | Some j -> Format.fprintf ppf "%s" (Json.to_string j)

(* ---------- generic name alignment ---------- *)

let align names_a names_b =
  let only_a = List.filter (fun n -> not (List.mem n names_b)) names_a in
  let only_b = List.filter (fun n -> not (List.mem n names_a)) names_b in
  let both = List.filter (fun n -> List.mem n names_b) names_a in
  (both, only_a, only_b)

(* ---------- monitors ---------- *)

let verdict (m : Report.monitor_rec) =
  if m.Report.checks = 0 then "no checks"
  else if m.Report.violations = 0 then "ok"
  else Printf.sprintf "VIOLATED (%d)" m.Report.violations

let monitor_changes a b =
  let ma = Report.monitors a and mb = Report.monitors b in
  let names = List.sort_uniq compare (List.map fst ma @ List.map fst mb) in
  List.filter_map
    (fun n ->
      match (List.assoc_opt n ma, List.assoc_opt n mb) with
      | None, None -> None
      | (Some _ | None), (Some _ | None) as pair ->
        let va = Option.map verdict (fst pair)
        and vb = Option.map verdict (snd pair) in
        if va = vb then None
        else
          Some
            ( n,
              Option.value va ~default:"(absent)",
              Option.value vb ~default:"(absent)" ))
    names

(* ---------- series ---------- *)

type series_delta = {
  sname : string;
  points : int;
  differing : int;
  max_abs : float;
  max_at : float;  (* x of the largest |delta| *)
  grids_differ : bool;
}

let series_delta name (xa, ya) (xb, yb) =
  if xa <> xb then
    {
      sname = name;
      points = min (Array.length xa) (Array.length xb);
      differing = -1;
      max_abs = nan;
      max_at = nan;
      grids_differ = true;
    }
  else begin
    let differing = ref 0 and max_abs = ref 0. and max_at = ref nan in
    Array.iteri
      (fun i x ->
        let d = Float.abs (ya.(i) -. yb.(i)) in
        if d > 0. then incr differing;
        if d > !max_abs then begin
          max_abs := d;
          max_at := x
        end)
      xa;
    {
      sname = name;
      points = Array.length xa;
      differing = !differing;
      max_abs = !max_abs;
      max_at = !max_at;
      grids_differ = false;
    }
  end

let series_deltas ~select a b =
  let pick t =
    List.filter_map
      (fun (n, xs, ys) -> if select n then Some (n, (xs, ys)) else None)
      (Report.series t)
  in
  let sa = pick a and sb = pick b in
  let both, _, _ = align (List.map fst sa) (List.map fst sb) in
  List.map
    (fun n -> series_delta n (List.assoc n sa) (List.assoc n sb))
    both

let pp_series_delta ppf d =
  if d.grids_differ then
    Format.fprintf ppf "%-44s x-grids differ (cannot align)@." d.sname
  else if d.differing = 0 then
    Format.fprintf ppf "%-44s identical (%d points)@." d.sname d.points
  else
    Format.fprintf ppf "%-44s %d/%d points differ, max |delta| %.3g at x=%g@."
      d.sname d.differing d.points d.max_abs d.max_at

(* ---------- histograms ---------- *)

let hist_mean (h : Report.hist_rec) =
  let n = Array.length h.Report.counts in
  if n = 0 || h.Report.total = 0 then nan
  else begin
    (* Bin midpoint under the histogram's scheme: arithmetic for linear
       bins, geometric (midpoint in log space) for log bins. *)
    let midpoint i =
      match h.Report.per_decade with
      | None ->
        let width = (h.Report.hi -. h.Report.lo) /. float_of_int n in
        h.Report.lo +. ((float_of_int i +. 0.5) *. width)
      | Some pd ->
        h.Report.lo
        *. Float.pow 10. ((float_of_int i +. 0.5) /. float_of_int pd)
    in
    let sum = ref 0. and cnt = ref 0 in
    Array.iteri
      (fun i c ->
        sum := !sum +. (float_of_int c *. midpoint i);
        cnt := !cnt + c)
      h.Report.counts;
    if !cnt = 0 then nan else !sum /. float_of_int !cnt
  end

(* L1 distance between the normalized bin mass of two same-shape
   histograms: 0 = identical shape, 2 = disjoint. *)
let hist_l1 (ha : Report.hist_rec) (hb : Report.hist_rec) =
  let na = Array.length ha.Report.counts and nb = Array.length hb.Report.counts in
  if na <> nb || ha.Report.total = 0 || hb.Report.total = 0 then nan
  else begin
    let ta = float_of_int ha.Report.total and tb = float_of_int hb.Report.total in
    let acc = ref 0. in
    for i = 0 to na - 1 do
      acc :=
        !acc
        +. Float.abs
             ((float_of_int ha.Report.counts.(i) /. ta)
             -. (float_of_int hb.Report.counts.(i) /. tb))
    done;
    !acc
  end

(* ---------- render ---------- *)

let cap = 24

let iter_capped ppf xs f =
  List.iteri (fun i x -> if i < cap then f x) xs;
  let n = List.length xs in
  if n > cap then Format.fprintf ppf "  ... %d more@." (n - cap)

let metric_names t =
  List.map fst (Report.counters t)
  @ List.map fst (Report.gauges t)
  @ List.map (fun (n, _, _) -> n) (Report.series t)
  @ List.map fst (Report.hists t)

(* Timing data (spans, gauges, pool series) differs between
   any two real runs; the diff compares only the subset [Record.canonical]
   keeps, so the golden "no differences" verdict survives the profiler. *)
let volatile_metric name = Record.volatile_base (snd (split_name name))

let stable_counters t =
  List.filter (fun (n, _) -> not (volatile_metric n)) (Report.counters t)

let stable_series t =
  List.filter (fun (n, _, _) -> not (volatile_metric n)) (Report.series t)

let stable_hists t =
  List.filter (fun (n, _) -> not (volatile_metric n)) (Report.hists t)

let stable_metric_names t =
  List.map fst (stable_counters t)
  @ List.map (fun (n, _, _) -> n) (stable_series t)
  @ List.map fst (stable_hists t)

let timing_counts t =
  let vol names = List.length (List.filter volatile_metric names) in
  ( vol (List.map fst (Report.counters t))
    + vol (List.map (fun (n, _, _) -> n) (Report.series t))
    + vol (List.map fst (Report.hists t)),
    List.length (Report.gauges t),
    List.length (Report.spans t) )

let identical a b =
  manifest_diffs a b = []
  && stable_counters a = stable_counters b
  && stable_series a = stable_series b
  && stable_hists a = stable_hists b
  && monitor_changes a b = []

let render ppf ~name_a ~name_b a b =
  Format.fprintf ppf "A: %s@.B: %s@." name_a name_b;
  if identical a b then
    Format.fprintf ppf
      "@.no differences: %d aligned metrics agree (manifest, monitors, \
       series, histograms, counters)@."
      (List.length (stable_metric_names a))
  else begin
    (* Manifest drift first: a seed or schema mismatch reframes every
       other delta below. *)
    (match manifest_diffs a b with
    | [] -> ()
    | diffs ->
      section ppf "Manifest differences";
      List.iter
        (fun (k, va, vb) ->
          Format.fprintf ppf "%-16s A=%a  B=%a@." k pp_opt_json va pp_opt_json
            vb)
        diffs;
      if List.exists (fun (k, _, _) -> k = "schema" || k = "target") diffs then
        Format.fprintf ppf
          "@.(schema/target mismatch: metric deltas below may align \
           unrelated runs)@.");
    (match monitor_changes a b with
    | [] -> ()
    | changes ->
      section ppf "Monitor verdict changes";
      List.iter
        (fun (n, va, vb) ->
          Format.fprintf ppf "%-12s A: %-14s B: %s@." n va vb)
        changes);
    let skews =
      series_deltas a b ~select:(fun n ->
          let _, base = split_name n in
          base = "run.skew" || base = "run.clean_skew")
    in
    if List.exists (fun d -> d.differing <> 0 || d.grids_differ) skews then begin
      section ppf "Skew deltas (per sample)";
      iter_capped ppf skews (pp_series_delta ppf)
    end;
    let adjs =
      series_deltas a b ~select:(fun n ->
          let _, base = split_name n in
          String.starts_with ~prefix:"proc." base
          && (Filename.check_suffix base ".adj"
             || Filename.check_suffix base ".corr"))
    in
    let adj_changed =
      List.filter (fun d -> d.differing <> 0 || d.grids_differ) adjs
    in
    if adj_changed <> [] then begin
      section ppf "ADJ/CORR deltas (per round)";
      iter_capped ppf adj_changed (pp_series_delta ppf);
      Format.fprintf ppf "(%d of %d matched per-process series differ)@."
        (List.length adj_changed) (List.length adjs)
    end;
    let ha = Report.hists a and hb = Report.hists b in
    let hboth, _, _ = align (List.map fst ha) (List.map fst hb) in
    let hist_changed =
      List.filter (fun n -> List.assoc n ha <> List.assoc n hb) hboth
    in
    if hist_changed <> [] then begin
      section ppf "Histogram shifts";
      iter_capped ppf hist_changed (fun n ->
          let va = List.assoc n ha and vb = List.assoc n hb in
          Format.fprintf ppf
            "%-44s total %d -> %d, mean %.4g -> %.4g, L1 shift %.3f@." n
            va.Report.total vb.Report.total (hist_mean va) (hist_mean vb)
            (hist_l1 va vb))
    end;
    let ca = Report.counters a and cb = Report.counters b in
    let cboth, _, _ = align (List.map fst ca) (List.map fst cb) in
    let counter_changed =
      List.filter_map
        (fun n ->
          let va = List.assoc n ca and vb = List.assoc n cb in
          if va = vb then None else Some (n, va, vb))
        cboth
    in
    if counter_changed <> [] then begin
      section ppf "Changed counters";
      iter_capped ppf counter_changed (fun (n, va, vb) ->
          Format.fprintf ppf "%-44s %d -> %d (%+d)@." n va vb (vb - va))
    end;
    let _, only_a, only_b = align (metric_names a) (metric_names b) in
    if only_a <> [] || only_b <> [] then begin
      section ppf "Coverage";
      Format.fprintf ppf "only in A: %d metric%s@." (List.length only_a)
        (if List.length only_a = 1 then "" else "s");
      iter_capped ppf only_a (fun n -> Format.fprintf ppf "  %s@." n);
      Format.fprintf ppf "only in B: %d metric%s@." (List.length only_b)
        (if List.length only_b = 1 then "" else "s");
      iter_capped ppf only_b (fun n -> Format.fprintf ppf "  %s@." n)
    end
  end;
  (match (timing_counts a, timing_counts b) with
  | (0, 0, 0), (0, 0, 0) -> ()
  | (ma, ga, pa), (mb, gb, pb) ->
    Format.fprintf ppf
      "@.(wall-clock data not compared: %d timing metrics, %d gauges, %d \
       spans)@."
      (max ma mb) (max ga gb) (max pa pb));
  match (Report.warnings a, Report.warnings b) with
  | [], [] -> ()
  | wa, wb ->
    Format.fprintf ppf "@.(reader warnings: %d in A, %d in B)@."
      (List.length wa) (List.length wb)
