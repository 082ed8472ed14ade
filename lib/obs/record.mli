(** Typed trace records: what a capture is built from.  {!Registry.records}
    and {!Monitor.records} produce them, {!Btrace} stores them (the one
    on-disk container, [csync-btrace/1]), and {!Report} folds them.

    {!to_json} is the one JSON rendering ([csync report --json]).
    {!of_json} inverts it byte-exactly through {!Json.to_string}; btrace
    uses it for the records it carries as embedded JSON. *)

type hist_rec = {
  lo : float;
  hi : float;
  per_decade : int option;  (** [Some pd] = log-bucketed, [None] = linear *)
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
  | Event of string * Json.t  (** name, fields object *)
  | Monitor of string * monitor_rec
  | Unknown of string * Json.t
      (** record kind this reader does not know — kept whole so callers
          can warn and skip, or carry it through a rewrite *)

val of_json : Json.t -> (t, string) result
(** Objects whose ["record"] kind is unrecognized decode as {!Unknown};
    [Error] only on a missing/malformed field of a known kind. *)

val to_json : t -> Json.t
(** Inverse of {!of_json}; {!Manifest} and {!Unknown} pass their
    original JSON through untouched.  Each kind's fields come in a fixed
    order, so a rendering is a pure function of the record. *)

val split_name : string -> string * string
(** [split_name "label/base"] is [("label", "base")]; a name with no
    ['/'] has label [""]. *)

val volatile_manifest_fields : string list
(** Manifest fields that legitimately differ between byte-identical
    computations ([captured_unix], [git_rev], [jobs]). *)

val volatile_base : string -> bool
(** Base names whose values depend on wall-clock or scheduling rather
    than the run's inputs ([pool.]/[profile.]/[obs.worker] prefixes).
    These are what {!canonical} drops and what the cross-run diff
    excludes from its identity verdict. *)

val canonical : t list -> t list
(** Restrict a trace to records that are a pure function of the run's
    inputs: drops spans and gauges (wall-clock / scheduling artifacts),
    metrics under the [pool.]/[profile.]/[obs.worker] base-name prefixes,
    and {!volatile_manifest_fields} from the manifest.  Canonical traces
    are byte-identical across [--jobs] and across host machines. *)
