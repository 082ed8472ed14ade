(** Minimal JSON values for the telemetry trace format.

    The container ships no JSON library, so the obs layer carries its own:
    a single-line writer whose float encoding ([%.17g], integral values
    without a fraction) round-trips binary64 exactly, and a small
    recursive-descent parser sufficient for reading back the traces the
    writer produced. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num_of_int : int -> t
(** [Num (float_of_int i)].  Ints in [\[0, num_cache)] return one shared,
    preallocated node each (values are immutable, so sharing is
    invisible); others allocate. *)

val num_cache : int
(** How many small ints {!num_of_int} shares nodes for. *)

val of_int_array : int array -> t
(** [Arr] of {!num_of_int} of each element, in order. *)

val of_float_array : float array -> t
(** [Arr] of [Num] of each element, in order. *)

val to_string : t -> string
(** Single line, no trailing newline.  NaN/infinite numbers encode as
    [null]. *)

val of_string : string -> (t, string) result

(** {2 Accessors} — all total, [None]/[Error] on shape mismatch. *)

val member : string -> t -> t option

val to_float : t -> float option

val is_integer : float -> bool
(** [Float.is_integer], cheaper for the values an int can hold. *)

val to_int : t -> int option
(** Only integral [Num]s. *)

val to_str : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option

val float_array : t -> float array option

val int_array : t -> int array option
(** Every element by {!to_int}'s rule: [None] if any element is not an
    integral number ([1.5], [1e400] and [null] are rejected, not
    truncated). *)
