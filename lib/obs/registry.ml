module Histogram = Csync_metrics.Histogram

(* Every cell is plain mutable state: a registry has exactly one writer
   at a time (see registry.mli), so nothing here synchronizes.  Parallel
   regions record into per-task children and fold them in with [merge]
   after the join. *)

type counter_cell = { mutable cv : int }

(* [gmax] remembers whether the last operation was [observe_max], so that
   [merge] can replay it: a set gauge's last writer wins, a high-water
   mark keeps the max. *)
type gauge_cell = {
  mutable gv : float;
  mutable gset : bool;
  mutable gmax : bool;
}

type series_cell = {
  mutable sx : float array;
  mutable sy : float array;
  mutable sn : int;
}

(* Durations accumulate as integer nanoseconds: the clock resolves µs at
   best, summing exact ns quotients avoids float drift, and the trace
   encoder stores ns-exact span times as varints instead of raw f64. *)
type span_cell = {
  mutable pcount : int;
  mutable ptotal_ns : int;
  mutable pmax_ns : int;
}

type event = { ev_name : string; ev_fields : (string * Json.t) list }

type t = {
  enabled : bool;
  mutable label : string;
  counters : (string, counter_cell) Hashtbl.t;
  gauges : (string, gauge_cell) Hashtbl.t;
  series_tbl : (string, series_cell) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  spans : (string, span_cell) Hashtbl.t;
  mutable events : event list; (* newest first *)
  mutable events_n : int;
  mutable events_dropped : int;
}

let event_cap = 65536

let make_registry enabled label =
  let size = if enabled then 8 else 1 in
  {
    enabled;
    label;
    counters = Hashtbl.create size;
    gauges = Hashtbl.create size;
    series_tbl = Hashtbl.create size;
    hists = Hashtbl.create size;
    spans = Hashtbl.create size;
    events = [];
    events_n = 0;
    events_dropped = 0;
  }

let none = make_registry false ""

let create () = make_registry true ""

let child t = if t.enabled then make_registry true t.label else none

let enabled t = t.enabled

let set_label t label = if t.enabled then t.label <- label

let label t = t.label

let full_name t name = match t.label with "" -> name | l -> l ^ "/" ^ name

(* Ambient registry, one slot per worker ({!Tls}): [Pool] installs each
   task's child on the worker running it, so components created inside a
   task capture the child and never another worker's registry. *)
let installed_key = Tls.new_key (fun () -> none)

let install t = Tls.set installed_key t

let installed () = Tls.get installed_key

let clear_installed () = Tls.set installed_key none

let now_s () = Unix.gettimeofday ()

let intern tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl name v;
    v

module Counter = struct
  type handle = Noop | C of counter_cell

  let noop = Noop

  let incr = function Noop -> () | C c -> c.cv <- c.cv + 1

  let add h n = match h with Noop -> () | C c -> c.cv <- c.cv + n

  let value = function Noop -> 0 | C c -> c.cv
end

let counter_cell t name = intern t.counters name (fun () -> { cv = 0 })

let counter t name =
  if not t.enabled then Counter.Noop
  else Counter.C (counter_cell t (full_name t name))

module Gauge = struct
  type handle = Noop | G of gauge_cell

  let noop = Noop

  let active = function Noop -> false | G _ -> true

  let set_cell c v =
    c.gv <- v;
    c.gset <- true;
    c.gmax <- false

  let max_cell c v =
    if (not c.gset) || v > c.gv then begin
      c.gv <- v;
      c.gset <- true
    end;
    c.gmax <- true

  let set h v = match h with Noop -> () | G c -> set_cell c v

  let observe_max h v = match h with Noop -> () | G c -> max_cell c v

  let value = function Noop -> None | G c -> if c.gset then Some c.gv else None
end

let gauge_cell t name =
  intern t.gauges name (fun () -> { gv = 0.; gset = false; gmax = false })

let gauge t name =
  if not t.enabled then Gauge.Noop
  else Gauge.G (gauge_cell t (full_name t name))

module Series = struct
  type handle = Noop | S of series_cell

  let noop = Noop

  let active = function Noop -> false | S _ -> true

  let push_cell c x y =
    let cap = Array.length c.sx in
    if c.sn = cap then begin
      let cap' = max 16 (2 * cap) in
      let grow a = Array.append a (Array.make (cap' - cap) 0.) in
      c.sx <- grow c.sx;
      c.sy <- grow c.sy
    end;
    c.sx.(c.sn) <- x;
    c.sy.(c.sn) <- y;
    c.sn <- c.sn + 1

  let push h x y = match h with Noop -> () | S c -> push_cell c x y

  let points = function
    | Noop -> []
    | S c -> List.init c.sn (fun i -> (c.sx.(i), c.sy.(i)))
end

let series_cell t name =
  intern t.series_tbl name (fun () -> { sx = [||]; sy = [||]; sn = 0 })

let series t name =
  if not t.enabled then Series.Noop
  else Series.S (series_cell t (full_name t name))

module Hist = struct
  type handle = Noop | H of Histogram.t

  let noop = Noop

  let active = function Noop -> false | H _ -> true

  let add h v = match h with Noop -> () | H hh -> Histogram.add hh v

  let count = function Noop -> 0 | H hh -> Histogram.count hh
end

let hist t ~lo ~hi ~bins name =
  if not t.enabled then Hist.Noop
  else
    Hist.H
      (intern t.hists (full_name t name) (fun () ->
           Histogram.create ~lo ~hi ~bins))

let hist_log t ~lo ~hi ~per_decade name =
  if not t.enabled then Hist.Noop
  else
    Hist.H
      (intern t.hists (full_name t name) (fun () ->
           Histogram.log ~lo ~hi ~per_decade))

module Span = struct
  type handle = Noop | P of span_cell

  let noop = Noop

  let active = function Noop -> false | P _ -> true

  let record h seconds =
    match h with
    | Noop -> ()
    | P c ->
      let ns = max 0 (int_of_float (Float.round (seconds *. 1e9))) in
      c.pcount <- c.pcount + 1;
      c.ptotal_ns <- c.ptotal_ns + ns;
      if ns > c.pmax_ns then c.pmax_ns <- ns

  let time h f =
    match h with
    | Noop -> f ()
    | P _ ->
      let t0 = now_s () in
      let finish () = record h (now_s () -. t0) in
      (match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e)

  let count = function Noop -> 0 | P c -> c.pcount
end

let span_cell t name =
  intern t.spans name (fun () -> { pcount = 0; ptotal_ns = 0; pmax_ns = 0 })

let span t name =
  if not t.enabled then Span.Noop else Span.P (span_cell t (full_name t name))

let push_event t e =
  if t.events_n >= event_cap then t.events_dropped <- t.events_dropped + 1
  else begin
    t.events <- e :: t.events;
    t.events_n <- t.events_n + 1
  end

let event t name fields =
  if t.enabled then
    push_event t { ev_name = full_name t name; ev_fields = fields }

(* ---------- merging a child ---------- *)

(* Names are already full in the child, so cells fold by name.  Every
   name is interned in [into] even when its cell is empty, exactly as if
   the child's recording had happened in [into] directly. *)
let merge ~into c =
  if into.enabled && c.enabled then begin
    Hashtbl.iter
      (fun name (k : counter_cell) ->
        let p = counter_cell into name in
        p.cv <- p.cv + k.cv)
      c.counters;
    Hashtbl.iter
      (fun name (g : gauge_cell) ->
        if g.gset then
          (if g.gmax then Gauge.max_cell else Gauge.set_cell)
            (gauge_cell into name) g.gv)
      c.gauges;
    Hashtbl.iter
      (fun name (s : series_cell) ->
        let p = series_cell into name in
        for i = 0 to s.sn - 1 do
          Series.push_cell p s.sx.(i) s.sy.(i)
        done)
      c.series_tbl;
    Hashtbl.iter
      (fun name h ->
        let p =
          intern into.hists name (fun () ->
              let lo, hi = Histogram.range h in
              match Histogram.per_decade h with
              | None -> Histogram.create ~lo ~hi ~bins:(Histogram.bins h)
              | Some per_decade -> Histogram.log ~lo ~hi ~per_decade)
        in
        Histogram.merge p h)
      c.hists;
    Hashtbl.iter
      (fun name (s : span_cell) ->
        let p = span_cell into name in
        p.pcount <- p.pcount + s.pcount;
        p.ptotal_ns <- p.ptotal_ns + s.ptotal_ns;
        if s.pmax_ns > p.pmax_ns then p.pmax_ns <- s.pmax_ns)
      c.spans;
    (* The child kept a prefix of its events and counted the rest, so
       appending that prefix under [into]'s cap keeps and drops exactly
       what recording into [into] directly would have. *)
    List.iter (push_event into) (List.rev c.events);
    into.events_dropped <- into.events_dropped + c.events_dropped
  end

(* ---------- dumping ---------- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump t =
  let counters =
    sorted_bindings t.counters
    |> List.map (fun (name, c) ->
           Json.Obj
             [
               ("record", Json.Str "counter");
               ("name", Json.Str name);
               ("value", Json.num_of_int c.cv);
             ])
  in
  let gauges =
    sorted_bindings t.gauges
    |> List.filter_map (fun (name, c) ->
           if not c.gset then None
           else
             Some
               (Json.Obj
                  [
                    ("record", Json.Str "gauge");
                    ("name", Json.Str name);
                    ("value", Json.Num c.gv);
                  ]))
  in
  let series =
    sorted_bindings t.series_tbl
    |> List.map (fun (name, c) ->
           let take a = List.init c.sn (fun i -> Json.Num a.(i)) in
           Json.Obj
             [
               ("record", Json.Str "series");
               ("name", Json.Str name);
               ("xs", Json.Arr (take c.sx));
               ("ys", Json.Arr (take c.sy));
             ])
  in
  let hists =
    sorted_bindings t.hists
    |> List.map (fun (name, h) ->
           let lo, hi = Histogram.range h in
           let counts =
             List.init (Histogram.bins h) (fun i ->
                 Json.num_of_int (Histogram.bin_count h i))
           in
           let scheme =
             match Histogram.per_decade h with
             | None -> []
             | Some pd -> [ ("per_decade", Json.num_of_int pd) ]
           in
           Json.Obj
             ([
                ("record", Json.Str "hist");
                ("name", Json.Str name);
                ("lo", Json.Num lo);
                ("hi", Json.Num hi);
              ]
             @ scheme
             @ [
                 ("counts", Json.Arr counts);
                 ("underflow", Json.num_of_int (Histogram.underflow h));
                 ("overflow", Json.num_of_int (Histogram.overflow h));
                 ("invalid", Json.num_of_int (Histogram.invalid h));
                 ("total", Json.num_of_int (Histogram.count h));
               ]))
  in
  let spans =
    sorted_bindings t.spans
    |> List.map (fun (name, c) ->
           Json.Obj
             [
               ("record", Json.Str "span");
               ("name", Json.Str name);
               ("count", Json.num_of_int c.pcount);
               ("total_s", Json.Num (float_of_int c.ptotal_ns /. 1e9));
               ("max_s", Json.Num (float_of_int c.pmax_ns /. 1e9));
             ])
  in
  let events =
    List.rev_map
      (fun e ->
        Json.Obj
          [
            ("record", Json.Str "event");
            ("name", Json.Str e.ev_name);
            ("fields", Json.Obj e.ev_fields);
          ])
      t.events
  in
  let dropped =
    if t.events_dropped = 0 then []
    else
      [
        Json.Obj
          [
            ("record", Json.Str "counter");
            ("name", Json.Str "obs.events_dropped");
            ("value", Json.num_of_int t.events_dropped);
          ];
      ]
  in
  counters @ dropped @ gauges @ series @ hists @ spans @ events
