(* The typed trace-record model shared by every reader and writer.
   Captures are built as records ({!Registry.records}, {!Monitor.records}),
   stored in the one binary container ([csync-btrace/1], {!Btrace}) and
   folded by {!Report}.

   [to_json] is the one JSON rendering, and [of_json] inverts it exactly:
   btrace carries manifests, events and unknown kinds as embedded JSON
   text and decodes them with [of_json]. *)

type hist_rec = {
  lo : float;
  hi : float;
  per_decade : int option;  (* Some pd = log-bucketed, None = linear *)
  counts : int array;
  underflow : int;
  overflow : int;
  invalid : int;
  total : int;
}

type span_rec = { count : int; total_s : float; max_s : float }

type monitor_rec = { checks : int; violations : int; first : Json.t option }

type t =
  | Manifest of Json.t
  | Counter of string * int
  | Gauge of string * float
  | Series of string * float array * float array
  | Hist of string * hist_rec
  | Span of string * span_rec
  | Event of string * Json.t
  | Monitor of string * monitor_rec
  | Unknown of string * Json.t
      (* a record kind this reader does not know, kept whole so it can be
         skipped with a warning or carried through a rewrite *)

(* ---------- JSON decoding ---------- *)

(* A failed field lookup raises its message; fields are read in [let]
   sequence, so the first bad field in source order is the one reported. *)
exception Bad of string

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing or malformed field %S" name))

let decode j =
  match field "record" Json.to_str j with
  | "manifest" -> Manifest j
  | "counter" ->
    let name = field "name" Json.to_str j in
    let v = field "value" Json.to_int j in
    Counter (name, v)
  | "gauge" ->
    let name = field "name" Json.to_str j in
    let v = field "value" Json.to_float j in
    Gauge (name, v)
  | "series" ->
    let name = field "name" Json.to_str j in
    let xs = field "xs" Json.float_array j in
    let ys = field "ys" Json.float_array j in
    if Array.length xs <> Array.length ys then
      raise (Bad "series xs/ys length mismatch");
    Series (name, xs, ys)
  | "hist" ->
    let name = field "name" Json.to_str j in
    let lo = field "lo" Json.to_float j in
    let hi = field "hi" Json.to_float j in
    let per_decade =
      match Json.member "per_decade" j with
      | None -> None
      | Some pd -> (
        match Json.to_int pd with
        | Some pd when pd > 0 -> Some pd
        | _ -> raise (Bad "malformed field \"per_decade\""))
    in
    let counts = field "counts" Json.int_array j in
    let underflow = field "underflow" Json.to_int j in
    let overflow = field "overflow" Json.to_int j in
    let invalid = field "invalid" Json.to_int j in
    let total = field "total" Json.to_int j in
    Hist (name, { lo; hi; per_decade; counts; underflow; overflow; invalid; total })
  | "span" ->
    let name = field "name" Json.to_str j in
    let count = field "count" Json.to_int j in
    let total_s = field "total_s" Json.to_float j in
    let max_s = field "max_s" Json.to_float j in
    Span (name, { count; total_s; max_s })
  | "event" ->
    let name = field "name" Json.to_str j in
    let fields = Option.value (Json.member "fields" j) ~default:(Json.Obj []) in
    Event (name, fields)
  | "monitor" ->
    let name = field "monitor" Json.to_str j in
    let checks = field "checks" Json.to_int j in
    let violations = field "violations" Json.to_int j in
    let first =
      match Json.member "first" j with
      | None | Some Json.Null -> None
      | Some f -> Some f
    in
    Monitor (name, { checks; violations; first })
  | other -> Unknown (other, j)

let of_json j = match decode j with r -> Ok r | exception Bad e -> Error e

(* ---------- JSON encoding ---------- *)

let to_json = function
  | Manifest j | Unknown (_, j) -> j
  | Counter (name, v) ->
    Json.Obj
      [
        ("record", Json.Str "counter");
        ("name", Json.Str name);
        ("value", Json.num_of_int v);
      ]
  | Gauge (name, v) ->
    Json.Obj
      [ ("record", Json.Str "gauge"); ("name", Json.Str name); ("value", Json.Num v) ]
  | Series (name, xs, ys) ->
    let arr a = Json.Arr (Array.fold_right (fun v l -> Json.Num v :: l) a []) in
    Json.Obj
      [
        ("record", Json.Str "series");
        ("name", Json.Str name);
        ("xs", arr xs);
        ("ys", arr ys);
      ]
  | Hist (name, h) ->
    let counts =
      Array.fold_right (fun c l -> Json.num_of_int c :: l) h.counts []
    in
    let tail =
      [
        ("counts", Json.Arr counts);
        ("underflow", Json.num_of_int h.underflow);
        ("overflow", Json.num_of_int h.overflow);
        ("invalid", Json.num_of_int h.invalid);
        ("total", Json.num_of_int h.total);
      ]
    in
    let tail =
      match h.per_decade with
      | None -> tail
      | Some pd -> ("per_decade", Json.num_of_int pd) :: tail
    in
    Json.Obj
      (("record", Json.Str "hist")
      :: ("name", Json.Str name)
      :: ("lo", Json.Num h.lo)
      :: ("hi", Json.Num h.hi)
      :: tail)
  | Span (name, s) ->
    Json.Obj
      [
        ("record", Json.Str "span");
        ("name", Json.Str name);
        ("count", Json.num_of_int s.count);
        ("total_s", Json.Num s.total_s);
        ("max_s", Json.Num s.max_s);
      ]
  | Event (name, fields) ->
    Json.Obj
      [ ("record", Json.Str "event"); ("name", Json.Str name); ("fields", fields) ]
  | Monitor (name, m) ->
    Json.Obj
      [
        ("record", Json.Str "monitor");
        ("monitor", Json.Str name);
        ("checks", Json.num_of_int m.checks);
        ("violations", Json.num_of_int m.violations);
        ("first", Option.value m.first ~default:Json.Null);
      ]

(* ---------- canonicalization ---------- *)

(* Metric names are "<cell label>/<base>"; base names use dots only, so
   the last '/' is the split point. *)
let split_name name =
  match String.rindex_opt name '/' with
  | None -> ("", name)
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Manifest fields that legitimately differ between byte-identical
   computations: when they were captured, from which commit, and with
   how many workers (the repo's cardinal invariant is that the worker
   count never changes what a run computes). *)
let volatile_manifest_fields = [ "captured_unix"; "git_rev"; "jobs" ]

let volatile_base base =
  starts_with ~prefix:"pool." base
  || starts_with ~prefix:"profile." base
  || starts_with ~prefix:"obs.worker" base

let canonical records =
  List.filter_map
    (fun r ->
      match r with
      (* Wall-clock timings and scheduling high-water marks depend on the
         host and the worker count; everything kept below is a pure
         function of the run's inputs. *)
      | Span _ | Gauge _ -> None
      | Counter (name, _) | Series (name, _, _) | Hist (name, _) ->
        let _, base = split_name name in
        if volatile_base base then None else Some r
      | Manifest (Json.Obj fields) ->
        Some
          (Manifest
             (Json.Obj
                (List.filter
                   (fun (k, _) -> not (List.mem k volatile_manifest_fields))
                   fields)))
      | Manifest _ | Event _ | Monitor _ | Unknown _ -> Some r)
    records
