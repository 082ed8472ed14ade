(** ASCII tables for experiment reports.

    Every experiment renders its result as one or more tables so that
    [csync run] reproduces the paper's quantitative content as
    readable rows; {!to_csv} supports downstream plotting. *)

type t

val make : title:string -> columns:string list -> unit -> t
(** An empty table; add notes with {!note}. *)

val add_row : t -> string list -> t
(** @raise Invalid_argument if the row width differs from the header. *)

val add_rows : t -> string list list -> t

val note : t -> string -> t
(** Append a free-form note rendered under the table. *)

val title : t -> string

val columns : t -> string list

val rows : t -> string list list

val render : Format.formatter -> t -> unit

val to_csv : t -> string

val cell_f : float -> string
(** Compact float formatting for cells (6 significant digits). *)

val cell_e : float -> string
(** Scientific notation (3 significant digits), for small time quantities. *)

val cell_ratio : float -> string
(** Two-decimal fixed point, for ratios like measured/bound. *)
