(** All experiments, in paper order. *)

val all : Experiment.t list

val find : string -> Experiment.t option
(** Case-insensitive lookup by id ("e1", "E10", ...). *)

val run_list :
  ?jobs:int ->
  quick:bool ->
  Experiment.t list ->
  (Experiment.t * Csync_metrics.Table.t list) list
(** The one way to run experiments.  Schedule every cell of every listed
    experiment through the {!Pool} ([jobs] defaults to
    {!Pool.default_jobs}), each under its own registry label [id/label],
    and assemble each experiment's tables in canonical order.  Output is
    bit-identical for every [jobs] value; see {!Pool}. *)

val render_list :
  ?jobs:int -> Format.formatter -> quick:bool -> Experiment.t list -> unit
(** {!run_list}, then print each experiment's header and tables in list
    order. *)

val render_all : ?jobs:int -> Format.formatter -> quick:bool -> unit
