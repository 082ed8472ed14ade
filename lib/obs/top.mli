(** [csync top] — a live terminal view over a trace file.

    top is a trace {e viewer}: each refresh streams the btrace file
    ({!Report.of_file}) into a {!Report.t} in constant memory and
    redraws one frame in place with an ANSI clear — round counter,
    convergence sparklines, round-phase time bars, monitor verdict
    lights, and fault/drop counters.  Tailing a trace that is still
    being written works because the btrace reader rewinds cleanly at a
    half-written record; top shows the last good frame until the writer
    catches up. *)

val frame : ?focus:string -> ?width:int -> Report.t -> path:string -> string
(** One rendered frame (no ANSI escapes).  [focus] picks the cell label
    for the series/phase sections (default: first cell with a known
    series); [width] is the phase bar width in characters (default
    32). *)

val fleet_frame : ?width:int -> Report.t -> path:string -> string
(** The per-node fleet panel ([csync top --fleet]) over a merged fleet
    trace: one row per node — round, worst measured pair skew involving
    the node, stream frames/records/gap accounting, emitter drops, and
    seconds behind the freshest node — plus the fleet-wide
    measured-vs-gamma headline and monitor lights. *)

val watch :
  ?focus:string ->
  ?interval:float ->
  ?fleet:bool ->
  once:bool ->
  string ->
  (unit, string) result
(** Watch [path].  With [once], render a single frame to stdout and
    return (the CI smoke path); otherwise loop forever — clear screen,
    draw, sleep [interval] (default 1s, clamped to >= 0.1) — until
    interrupted.  [fleet] (default false) renders {!fleet_frame} — the
    natural target is the merged trace the collector keeps rewriting.
    [Error] only if the first load fails in [once] mode; the loop itself
    tolerates an unreadable or mid-write file. *)
