(** Imperative binary min-heap over an arbitrary element type.

    The ordering is supplied at creation time.  {!Event_queue} keeps the
    events beyond its wheel's horizon in one; exposed separately so the
    tests can build a reference priority queue from it. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Removes and returns the minimum element, or [None] if empty. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: the heap contents in ascending order. *)
