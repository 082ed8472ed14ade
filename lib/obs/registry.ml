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

(* Durations accumulate as integer nanoseconds, as {!now_ns} reads them:
   summing ints avoids float drift, and the trace encoder stores ns-exact
   span times as varints instead of raw f64. *)
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
  grids : (string, Histogram.Grid.t) Hashtbl.t;
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
    grids = Hashtbl.create size;
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

(* CLOCK_MONOTONIC in ns (mono_clock_stubs.c): it never steps, so a span
   can never read a negative duration. *)
external now_ns : unit -> int = "csync_mono_ns" [@@noalloc]

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

module Grid = struct
  type handle = Noop | G of Histogram.Grid.t

  let active = function Noop -> false | G _ -> true

  let add h ~src ~dst v =
    match h with Noop -> () | G g -> Histogram.Grid.add g ~src ~dst v

  let count h ~src ~dst =
    match h with Noop -> 0 | G g -> Histogram.Grid.count g ~src ~dst
end

(* One table entry per family.  Re-minting keeps the first window, as
   [hist] does for each name, and grows [n], so every link minted under
   the name stays a link of the grid.  Links new to a growing grid would
   take the new window as named histograms; one grid holds one window,
   so that case raises instead. *)
let grid_cell t ~lo ~hi ~bins ~n name =
  match Hashtbl.find_opt t.grids name with
  | None ->
    let g = Histogram.Grid.create ~lo ~hi ~bins ~n in
    Hashtbl.replace t.grids name g;
    g
  | Some g ->
    if n > Histogram.Grid.n g && not (Histogram.Grid.same_window g ~lo ~hi ~bins)
    then
      invalid_arg
        ("Registry.hist_grid: " ^ name ^ " grown with another window");
    Histogram.Grid.grow g n;
    g

let hist_grid t ~lo ~hi ~bins ~n name =
  if not t.enabled then Grid.Noop
  else Grid.G (grid_cell t ~lo ~hi ~bins ~n (full_name t name))

module Span = struct
  type handle = Noop | P of span_cell

  let noop = Noop

  let active = function Noop -> false | P _ -> true

  let add_ns c ns =
    c.pcount <- c.pcount + 1;
    c.ptotal_ns <- c.ptotal_ns + ns;
    if ns > c.pmax_ns then c.pmax_ns <- ns

  let record h seconds =
    match h with
    | Noop -> ()
    | P c -> add_ns c (max 0 (int_of_float (Float.round (seconds *. 1e9))))

  let time h f =
    match h with
    | Noop -> f ()
    | P c -> (
      let t0 = now_ns () in
      match f () with
      | v ->
        add_ns c (now_ns () - t0);
        v
      | exception e ->
        add_ns c (now_ns () - t0);
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
      (fun name g ->
        let lo, hi = Histogram.Grid.range g in
        let p =
          grid_cell into ~lo ~hi ~bins:(Histogram.Grid.bins g)
            ~n:(Histogram.Grid.n g) name
        in
        Histogram.Grid.merge p g)
      c.grids;
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

let hist_record name h =
  let lo, hi = Histogram.range h in
  Record.Hist
    ( name,
      {
        Record.lo;
        hi;
        per_decade = Histogram.per_decade h;
        counts = Array.init (Histogram.bins h) (Histogram.bin_count h);
        underflow = Histogram.underflow h;
        overflow = Histogram.overflow h;
        invalid = Histogram.invalid h;
        total = Histogram.count h;
      } )

(* [0 .. n-1] in the order of their decimal strings: 0, 1, 10, 11, .., 2. *)
let decimal_order n =
  let order = Array.make n 0 and k = ref 1 in
  let rec visit x =
    order.(!k) <- x;
    incr k;
    for c = 0 to 9 do
      let y = (x * 10) + c in
      if y < n then visit y
    done
  in
  for d = 1 to min 9 (n - 1) do
    visit d
  done;
  order

(* Hands [emit] one linear [hist] record per link, named
   [prefix ^ "<src>-><dst>"], in name order: '-' sorts before every
   digit, so that is decimal-string order of src, then of dst.  Records
   are built straight from the flat arrays. *)
let grid_records prefix g emit =
  let module G = Histogram.Grid in
  let lo, hi = G.range g in
  let n = G.n g in
  let order = decimal_order n in
  let digits = Array.init n string_of_int in
  Array.iter
    (fun src ->
      let head = prefix ^ digits.(src) ^ "->" in
      Array.iter
        (fun dst ->
          let name = head ^ digits.(dst) in
          emit name
            (Record.Hist
               ( name,
                 {
                   Record.lo;
                   hi;
                   per_decade = None;
                   counts = G.bin_counts g ~src ~dst;
                   underflow = G.underflow g ~src ~dst;
                   overflow = G.overflow g ~src ~dst;
                   invalid = G.invalid g ~src ~dst;
                   total = G.count g ~src ~dst;
                 } )))
        order)
    order

(* Histograms and every grid link, in one name order.  Grids go in order
   of their link-name prefix; each one's links are merged with the named
   histograms as they are generated. *)
let hist_records t =
  let named = ref (sorted_bindings t.hists) and out = ref [] in
  let rec emit_named_below link = function
    | (name, h) :: rest when String.compare name link < 0 ->
      out := hist_record name h :: !out;
      emit_named_below link rest
    | rest -> rest
  in
  Hashtbl.fold (fun name g acc -> (name ^ ".", g) :: acc) t.grids []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (prefix, g) ->
         grid_records prefix g (fun link r ->
             named := emit_named_below link !named;
             out := r :: !out));
  List.rev_append !out (List.map (fun (name, h) -> hist_record name h) !named)

let records t =
  let counters =
    sorted_bindings t.counters
    |> List.map (fun (name, c) -> Record.Counter (name, c.cv))
  in
  let gauges =
    sorted_bindings t.gauges
    |> List.filter_map (fun (name, c) ->
           if c.gset then Some (Record.Gauge (name, c.gv)) else None)
  in
  let series =
    sorted_bindings t.series_tbl
    |> List.map (fun (name, c) ->
           Record.Series (name, Array.sub c.sx 0 c.sn, Array.sub c.sy 0 c.sn))
  in
  let hists = hist_records t in
  let spans =
    sorted_bindings t.spans
    |> List.map (fun (name, c) ->
           Record.Span
             ( name,
               {
                 Record.count = c.pcount;
                 total_s = float_of_int c.ptotal_ns /. 1e9;
                 max_s = float_of_int c.pmax_ns /. 1e9;
               } ))
  in
  let events =
    List.rev_map
      (fun e -> Record.Event (e.ev_name, Json.Obj e.ev_fields))
      t.events
  in
  let dropped =
    if t.events_dropped = 0 then []
    else [ Record.Counter ("obs.events_dropped", t.events_dropped) ]
  in
  counters @ dropped @ gauges @ series @ hists @ spans @ events

let dump t = List.map Record.to_json (records t)
