(** Cross-run trace diffing: [csync report --diff a.btrace b.btrace].

    Two captured traces (read by {!Report.of_file}) are aligned by manifest and by metric name; the
    rendering shows what changed between the runs — manifest drift
    (different seed, jobs, params, schema), monitor-verdict changes,
    per-round skew and ADJ deltas, histogram shift summaries, changed
    counters — and what exists in only one of them.  Wall-clock data
    (spans, gauges, profiler/pool metrics — the records
    [Record.canonical] drops) is excluded from the comparison and
    footnoted, so identical runs (same seed, same build) render as an
    explicit "no differences" verdict even when they carry profiler
    timings, the property the golden CI diff asserts. *)

val render :
  Format.formatter -> name_a:string -> name_b:string -> Report.t -> Report.t ->
  unit
(** [name_a]/[name_b] caption the two traces (typically the file paths). *)

val identical : Report.t -> Report.t -> bool
(** True when every aligned metric, monitor verdict, and manifest field
    agrees, ignoring capture timestamps, git revision, and wall-clock
    data ({!Record.volatile_base} metrics, gauges, spans) — the
    byte-identical-tables invariant seen through a trace. *)
