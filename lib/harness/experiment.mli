(** The experiment registry interface.

    Each experiment regenerates one of the paper's quantitative claims (a
    theorem's bound, a convergence recurrence, or a Section 10 comparison
    row) as one or more tables; see DESIGN.md's per-experiment index.

    An experiment is a pure description of its sweep: a list of
    independent, individually seeded, labelled cells, each producing raw
    rows, plus an [assemble] step that folds the rows into tables in
    canonical order.  {!Registry.run_list} schedules the cells across a
    {!Pool} of workers with bit-identical output for any worker count,
    and prefixes each cell's metrics with [id/label], so every run of a
    sweep is its own series in a capture. *)

type cell = { label : string; thunk : unit -> string list list }
(** One independent unit of work: a stable display label ([key=value],
    as in ["eps=0.0001,rho=1e-06,P=0.5"]) and a seeded thunk returning raw
    rows.  The thunk must be self-contained (its own RNGs, no shared
    mutable state) - it may run on any pool worker. *)

val cell : label:string -> (unit -> string list list) -> cell
(** @raise Invalid_argument if [label] contains a ['/']: metric names
    split at their last ['/'] into label and base name. *)

type t = {
  id : string;  (** "E1" .. "E17" *)
  title : string;
  paper_ref : string;  (** theorem/section the experiment reproduces *)
  cells : quick:bool -> cell list;  (** [quick] trims sweeps for test suites *)
  assemble : quick:bool -> string list list list -> Csync_metrics.Table.t list;
      (** Receives one row list per cell, in cell-list order - independent
          of the order cells were executed in. *)
}

val of_cells :
  id:string ->
  title:string ->
  paper_ref:string ->
  cells:(quick:bool -> cell list) ->
  assemble:(quick:bool -> string list list list -> Csync_metrics.Table.t list) ->
  t

val tasks : quick:bool -> t -> (string * (unit -> string list list)) list
(** The experiment's schedulable units: one [(id/label, thunk)] per cell. *)

val render_tables : Format.formatter -> t -> Csync_metrics.Table.t list -> unit
(** Print the experiment header followed by already-computed tables. *)
