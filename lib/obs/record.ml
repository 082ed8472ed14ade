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

(* A failed field lookup raises its message; fields are checked in [let]
   sequence, so the first bad field in source order is the one reported. *)
exception Bad of string

(* Every key a known kind reads has a slot, its index in [keys].  One
   pass over an object keeps the first occurrence of each (as
   {!Json.member} would find it); the kind's fields are then checked
   from the slots. *)
let keys =
  [| "record"; "name"; "value"; "xs"; "ys"; "lo"; "hi"; "per_decade"; "counts";
     "underflow"; "overflow"; "invalid"; "total"; "count"; "total_s"; "max_s";
     "fields"; "monitor"; "checks"; "violations"; "first" |]

let s_record = 0
let s_name = 1
let s_value = 2
let s_xs = 3
let s_ys = 4
let s_lo = 5
let s_hi = 6
let s_per_decade = 7
let s_counts = 8
let s_underflow = 9
let s_overflow = 10
let s_invalid = 11
let s_total = 12
let s_count = 13
let s_total_s = 14
let s_max_s = 15
let s_fields = 16
let s_monitor = 17
let s_checks = 18
let s_violations = 19
let s_first = 20

let slot = function
  | "record" -> s_record
  | "name" -> s_name
  | "value" -> s_value
  | "xs" -> s_xs
  | "ys" -> s_ys
  | "lo" -> s_lo
  | "hi" -> s_hi
  | "per_decade" -> s_per_decade
  | "counts" -> s_counts
  | "underflow" -> s_underflow
  | "overflow" -> s_overflow
  | "invalid" -> s_invalid
  | "total" -> s_total
  | "count" -> s_count
  | "total_s" -> s_total_s
  | "max_s" -> s_max_s
  | "fields" -> s_fields
  | "monitor" -> s_monitor
  | "checks" -> s_checks
  | "violations" -> s_violations
  | "first" -> s_first
  | _ -> -1

(* An empty slot: a fresh block, so no parsed value is physically equal
   to it, and of a shape no field accessor accepts. *)
let absent = Json.Obj [ (Sys.opaque_identity "", Json.Null) ]

let rec fill slots = function
  | [] -> ()
  | (k, v) :: rest ->
    let i = slot k in
    if i >= 0 && Array.unsafe_get slots i == absent then
      Array.unsafe_set slots i v;
    fill slots rest

let bad i =
  raise (Bad (Printf.sprintf "missing or malformed field %S" keys.(i)))

let get_str slots i =
  match slots.(i) with Json.Str s -> s | _ -> bad i

let get_int slots i =
  match slots.(i) with
  | Json.Num f when Json.is_integer f -> int_of_float f
  | _ -> bad i

let get_float slots i =
  match slots.(i) with Json.Num f -> f | _ -> bad i

let get_floats slots i =
  match Json.float_array slots.(i) with Some a -> a | None -> bad i

let get_ints slots i =
  match Json.int_array slots.(i) with Some a -> a | None -> bad i

let decode j =
  (* one [absent] per key *)
  let slots =
    [| absent; absent; absent; absent; absent; absent; absent; absent; absent;
       absent; absent; absent; absent; absent; absent; absent; absent; absent;
       absent; absent; absent |]
  in
  (match j with Json.Obj fields -> fill slots fields | _ -> ());
  match get_str slots s_record with
  | "manifest" -> Manifest j
  | "counter" ->
    let name = get_str slots s_name in
    let v = get_int slots s_value in
    Counter (name, v)
  | "gauge" ->
    let name = get_str slots s_name in
    let v = get_float slots s_value in
    Gauge (name, v)
  | "series" ->
    let name = get_str slots s_name in
    let xs = get_floats slots s_xs in
    let ys = get_floats slots s_ys in
    if Array.length xs <> Array.length ys then
      raise (Bad "series xs/ys length mismatch");
    Series (name, xs, ys)
  | "hist" ->
    let name = get_str slots s_name in
    let lo = get_float slots s_lo in
    let hi = get_float slots s_hi in
    let per_decade =
      match slots.(s_per_decade) with
      | pd when pd == absent -> None
      | Json.Num f when Json.is_integer f && int_of_float f > 0 ->
        Some (int_of_float f)
      | _ -> raise (Bad "malformed field \"per_decade\"")
    in
    let counts = get_ints slots s_counts in
    let underflow = get_int slots s_underflow in
    let overflow = get_int slots s_overflow in
    let invalid = get_int slots s_invalid in
    let total = get_int slots s_total in
    Hist (name, { lo; hi; per_decade; counts; underflow; overflow; invalid; total })
  | "span" ->
    let name = get_str slots s_name in
    let count = get_int slots s_count in
    let total_s = get_float slots s_total_s in
    let max_s = get_float slots s_max_s in
    Span (name, { count; total_s; max_s })
  | "event" ->
    let name = get_str slots s_name in
    let fields =
      match slots.(s_fields) with f when f == absent -> Json.Obj [] | f -> f
    in
    Event (name, fields)
  | "monitor" ->
    let name = get_str slots s_monitor in
    let checks = get_int slots s_checks in
    let violations = get_int slots s_violations in
    let first =
      match slots.(s_first) with
      | f when f == absent -> None
      | Json.Null -> None
      | f -> Some f
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
    Json.Obj
      [
        ("record", Json.Str "series");
        ("name", Json.Str name);
        ("xs", Json.of_float_array xs);
        ("ys", Json.of_float_array ys);
      ]
  | Hist (name, h) ->
    let tail =
      [
        ("counts", Json.of_int_array h.counts);
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

(* Manifest fields that legitimately differ between byte-identical
   computations: when they were captured, from which commit, and with
   how many workers (the repo's cardinal invariant is that the worker
   count never changes what a run computes). *)
let volatile_manifest_fields = [ "captured_unix"; "git_rev"; "jobs" ]

let volatile_base base =
  String.starts_with ~prefix:"pool." base
  || String.starts_with ~prefix:"profile." base
  || String.starts_with ~prefix:"obs.worker" base

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
