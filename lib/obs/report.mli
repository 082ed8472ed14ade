(** Load a captured trace and render the human-readable explainer behind
    [csync report].

    A trace is a [csync-btrace/1] file ({!Btrace}) of {!Record}s.  It
    streams record-at-a-time into the report accumulator, so traces from
    million-process runs load in memory proportional to their decoded
    records.

    The reader is forward-compatible: record kinds and manifest fields it
    does not know are skipped and counted in {!warnings} (a newer writer's
    trace still renders), while truncated or malformed input remains a
    clean one-line error. *)

type t

type hist_rec = Record.hist_rec = {
  lo : float;
  hi : float;
  per_decade : int option;  (** [Some pd] = log-bucketed *)
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
  first : Json.t option;  (** the first-violation object, if any *)
}

val of_records : Record.t list -> t

val of_file : string -> (t, string) result
(** Streams a [csync-btrace/1] file; anything else is a one-line
    bad-magic error. *)

val labels : t -> string list
(** Distinct cell labels appearing in metric names ([""] = unlabeled). *)

val rebuild_hist : hist_rec -> Csync_metrics.Histogram.t
(** Reconstitute a live histogram (scheme-aware) from trace counts. *)

(** {2 Accessors} (in trace order; the diff renderer reads through these) *)

val manifest : t -> Json.t option

val counters : t -> (string * int) list

val gauges : t -> (string * float) list

val series : t -> (string * float array * float array) list

val hists : t -> (string * hist_rec) list

val spans : t -> (string * span_rec) list

val events : t -> (string * Json.t) list

val monitors : t -> (string * monitor_rec) list
(** Keyed by monitor name ([agreement], [validity], ...). *)

val warnings : t -> string list
(** Reader warnings: skipped unknown record kinds / manifest fields. *)

val render : ?focus:string -> Format.formatter -> t -> unit
(** Render the report: manifest, timelines (run skew, scale spread and
    local skew, events per round, model-checker frontier),
    ADJ-per-round table, delay/skew histograms (via
    {!Csync_metrics.Histogram.render}), the round-phase profile table,
    pool utilization, chaos ledger, monitor verdicts, exploration stats,
    and residual counters/gauges.  [focus] picks the cell label for the
    per-cell sections (default: the first cell with a timeline
    series). *)

(** {2 Fleet validation} ([csync report --fleet])

    Analyzes a merged fleet trace (built by {!Collect}): each node
    [p<i>] ships series [p<i>/fleet.offset.p<j>] of one-way offset
    samples [own_reading - peer_value].  Pairing the two directions of a
    link cancels the symmetric part of the transit delay, so

      measured skew(i,j) = |median_tail(off_ij) - median_tail(off_ji)| / 2

    estimates the true clock skew with only delay asymmetry as noise.
    The γ (and per-hop κ) envelopes come from the fleet manifest, where
    the emitter baked them in. *)

type fleet_pair = {
  node_a : int;
  node_b : int;
  pair_samples : int;  (** total samples across both directions *)
  offset_ab : float;  (** median tail offset measured at [a] from [b] *)
  offset_ba : float;
  measured : float;  (** [|offset_ab - offset_ba| / 2] *)
}

type fleet = {
  fleet_nodes : int list;
  fleet_gamma : float option;  (** γ from the fleet manifest params *)
  fleet_kappa : float option;  (** per-hop κ, when the emitter knew one *)
  fleet_pairs : fleet_pair list;
  fleet_max : float;  (** max [measured] over pairs, 0 if none *)
  fleet_unpaired : (int * int) list;
      (** [(i, j)]: node [i] has samples from [j] but not vice versa *)
}

val fleet : t -> fleet

val render_fleet : Format.formatter -> t -> unit
(** The measured-vs-predicted table with per-pair verdicts and explicit
    [VIOLATION] lines, the per-node liveness/accounting table, monitor
    verdicts, and reader warnings. *)

(** {2 Watching a capture} ([csync report --watch]) *)

val refresh :
  ?focus:string ->
  fleet:bool ->
  last:string option ->
  string ->
  string option * string
(** One redraw of {!watch}: read [path] and return the last good frame
    to keep, with the text to draw ({!render}, or {!render_fleet} when
    [fleet]).  A trace still being written can end mid-record; that read
    fails, and the text is [last] with a "capture in progress" note, or
    a waiting notice before the first good read. *)

val watch : ?focus:string -> fleet:bool -> interval:float -> string -> 'a
(** Clear the terminal and draw {!refresh}'s frame every [interval]
    seconds (clamped to >= 0.1) until interrupted. *)
