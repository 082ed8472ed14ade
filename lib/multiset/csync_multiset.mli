(** Multisets of real numbers, as used by the fault-tolerant averaging
    functions of Welch & Lynch (Section 4.2 and Appendix).

    A multiset is a finite collection of floats in which the same value may
    occur more than once.  Values are stored sorted ascending; all operations
    are purely functional.

    The names follow the paper: [reduce] removes the [f] largest and [f]
    smallest elements, [mid] is the midpoint of the spanned interval,
    [x_distance] is the d_x(U,V) measure of Appendix Lemmas 21-24. *)

type t

(** {1 Construction and deconstruction} *)

val empty : t

val of_list : float list -> t

val of_array : float array -> t
(** The input array is copied; the argument is not mutated.  The sort
    orders like [Array.sort Float.compare] (the same permutation, bit for
    bit) and allocates only its result. *)

val singleton : float -> t

val add : float -> t -> t
(** [add x u] inserts one occurrence of [x]. *)

val to_list : t -> float list
(** Elements in ascending order. *)

val to_array : t -> float array
(** Fresh array, elements in ascending order. *)

val size : t -> int

val is_empty : t -> bool

(** {1 Order statistics} *)

val min_elt : t -> float
(** @raise Invalid_argument on the empty multiset. *)

val max_elt : t -> float
(** @raise Invalid_argument on the empty multiset. *)

val nth : t -> int -> float
(** [nth u i] is the [i]-th smallest element, 0-indexed.
    @raise Invalid_argument if out of range. *)

val diameter : t -> float
(** diam(U) = max(U) - min(U).  The paper's diam; 0 for the empty multiset. *)

(** {1 Averaging functions (Section 4.2)} *)

val mid : t -> float
(** Midpoint of the range: (max(U) + min(U)) / 2.
    @raise Invalid_argument on the empty multiset. *)

val mean : t -> float
(** Arithmetic mean.  @raise Invalid_argument on the empty multiset. *)

val median : t -> float
(** Median (mean of the two central elements for even sizes).
    @raise Invalid_argument on the empty multiset. *)

(** {1 Reduction (Appendix)} *)

val drop_lowest : t -> t
(** s(U): one occurrence of min(U) removed.  Identity on the empty multiset. *)

val drop_highest : t -> t
(** l(U): one occurrence of max(U) removed.  Identity on the empty multiset. *)

val reduce : f:int -> t -> t
(** [reduce ~f u] = l^f(s^f(u)): the [f] largest and [f] smallest elements
    removed.  @raise Invalid_argument if [size u < 2*f] or [f < 0]. *)

(** {1 Fused reduce-and-average}

    The averaging functions applied to [reduce ~f u], computed directly
    from the order statistics of [u] - no intermediate multiset, O(1) for
    the midpoint.  These are the per-round hot path of the maintenance
    algorithm. *)

val mid_reduced : f:int -> t -> float
(** [mid_reduced ~f u = mid (reduce ~f u)], in O(1).
    @raise Invalid_argument if [f < 0], [size u < 2*f], or the reduction
    would be empty ([size u = 2*f]). *)

val mean_reduced : f:int -> t -> float
(** [mean_reduced ~f u = mean (reduce ~f u)], allocation-free.
    @raise Invalid_argument as {!mid_reduced}. *)

val median_reduced : f:int -> t -> float
(** [median_reduced ~f u = median (reduce ~f u)], in O(1).
    @raise Invalid_argument as {!mid_reduced}. *)

(** {1 Arithmetic} *)

val add_scalar : t -> float -> t
(** U + r = [{u + r : u in U}].  [mid (add_scalar u r) = mid u +. r]. *)

val union : t -> t -> t
(** Multiset union (sizes add). *)

val map : (float -> float) -> t -> t
(** Applies [f] to every element and re-sorts. *)

val count : (float -> bool) -> t -> int

val mem_within : t -> value:float -> tol:float -> bool
(** True iff some element [e] satisfies [abs_float (e -. value) <= tol]. *)

(** {1 x-distance (Appendix)} *)

val max_pairing : x:float -> t -> t -> int
(** Size of a maximum matching between [u] and [v] where [a] in [u] may be
    matched with [b] in [v] iff [abs_float (a -. b) <= x].  Computed by the
    greedy interval-matching algorithm (optimal for threshold costs on a
    line). *)

val x_distance : x:float -> t -> t -> int
(** d_x(U, V) for [size u <= size v]: the least, over injections c from U to
    V, of the number of elements u with |u - c(u)| > x.  Equals
    [size u - max_pairing ~x u v].
    @raise Invalid_argument if [size u > size v]. *)

(** {1 Pretty-printing and comparison} *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Exact float equality, element-wise. *)

val compare : t -> t -> int

(** {1 Scratch-buffer variants}

    Allocation-avoiding counterparts for periodic hot paths (the k-exchange
    loop builds the same-size multiset every exchange).  Each operation
    returns a multiset that {e aliases} the buffer: it is valid only until
    the buffer's next use, and must not be stored, returned across rounds,
    or shared between domains.  Buffers are not thread-safe; give each
    worker its own.  Results are element-for-element identical to the
    allocating versions. *)
module Scratch : sig
  type buf

  val create : unit -> buf

  val sorted_of_array : buf -> float array -> t
  (** Like {!of_array}, sorting into the buffer instead of a fresh copy;
      once the buffer has the input's size, it allocates nothing.  The
      input array is not mutated (unless it is itself the buffer's backing
      store from a previous call). *)

  val add_scalar : buf -> t -> float -> t
  (** Like {!add_scalar}, writing into the buffer.  The input may alias the
      buffer. *)

  val union : buf -> t -> t -> t
  (** Like {!union}, merging into the buffer.  Inputs aliasing the buffer
      are copied first (one allocation), so prefer distinct inputs. *)
end
