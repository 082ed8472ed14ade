(** Fixed-bin histograms, for inspecting the distributions behind the
    experiment summaries (adjustment sizes, per-round spreads, message
    delays).

    Two binning schemes: {!create} splits [lo, hi] into equal-width
    bins; {!log} (HDR-style) spaces them geometrically with a fixed
    number of bins per decade — the right shape for skew and delay
    distributions spanning several orders of magnitude. *)

type scheme =
  | Linear
  | Log of int  (** bins per decade *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Linear bins.  @raise Invalid_argument if [lo >= hi] or [bins <= 0]. *)

val log : lo:float -> hi:float -> per_decade:int -> t
(** Log-bucketed bins: bin [i] spans
    [lo * 10^(i/per_decade), lo * 10^((i+1)/per_decade)), with enough
    bins to cover [hi].  @raise Invalid_argument unless
    [0 < lo < hi] (finite) and [per_decade > 0]. *)

val scheme : t -> scheme

val per_decade : t -> int option
(** [Some pd] on log histograms, [None] on linear ones (the serialized
    discriminator: traces carry [per_decade] only for log schemes). *)

val of_array : ?bins:int -> float array -> t
(** Linear bins spanning [min, max] of the data (default 20 bins); values
    are added.  @raise Invalid_argument on an empty array. *)

val of_counts :
  ?per_decade:int ->
  lo:float ->
  hi:float ->
  counts:int array ->
  underflow:int ->
  overflow:int ->
  invalid:int ->
  total:int ->
  unit ->
  t
(** Rebuild a histogram from serialized bin counts (the telemetry trace
    format); [counts] is copied and [per_decade] selects the log scheme.
    @raise Invalid_argument on an empty or negative count array,
    [lo >= hi], or a log scheme with nonpositive [lo] or [per_decade]. *)

val add : t -> float -> unit
(** Values outside [lo, hi] land in the under/overflow counters; NaN (which
    is neither below [lo] nor above [hi]) lands in the {!invalid} counter
    rather than being silently binned. *)

val merge : t -> t -> unit
(** [merge dst src] adds [src]'s bin and under/overflow/invalid/total
    counters into [dst] — the shard-fold primitive.  @raise
    Invalid_argument unless both histograms have the same scheme, bounds
    and bin count. *)

val count : t -> int
(** Total values added, under/overflow and invalid included. *)

val bin_count : t -> int -> int
(** @raise Invalid_argument if the index is out of range. *)

val bins : t -> int
(** Number of bins. *)

val range : t -> float * float
(** The [(lo, hi)] bounds the bins span. *)

val underflow : t -> int

val overflow : t -> int

val invalid : t -> int
(** NaN values offered to {!add}. *)

val bin_bounds : t -> int -> float * float
(** Scheme-aware bin bounds: equal-width under {!Linear}, geometric under
    {!Log}. *)

val mode_bin : t -> int
(** Index of the fullest bin (ties: lowest index).  Meaningless when
    {!count} is 0. *)

val render : ?width:int -> Format.formatter -> t -> unit
(** Horizontal ASCII bars, one line per bin; any nonzero bin renders at
    least one mark.  Under/overflow and invalid counters are appended when
    nonzero. *)

(** A family of linear histograms, one per link [(src, dst)] of an
    [n]-process system, all over one window ([lo], [hi], [bins]).  The
    bins are two flat int arrays, so recording a value costs what
    {!add} costs, and minting the family costs two allocations, not
    [n * n] histograms.  A link bins exactly as {!add} on a
    [create ~lo ~hi ~bins] histogram would. *)
module Grid : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> n:int -> t
  (** @raise Invalid_argument if [lo >= hi], [bins <= 0] or [n <= 0]. *)

  val n : t -> int

  val bins : t -> int

  val range : t -> float * float

  val same_window : t -> lo:float -> hi:float -> bins:int -> bool

  val grow : t -> int -> unit
  (** [grow g n] widens [g] to [n] processes, keeping every link's
      counts; no-op unless [n] exceeds {!n}. *)

  val add : t -> src:int -> dst:int -> float -> unit
  (** {!add} on link [(src, dst)].
      @raise Invalid_argument unless both are in [0, n). *)

  val bin_counts : t -> src:int -> dst:int -> int array
  (** A fresh copy of the link's bin counts, in bin order. *)

  val underflow : t -> src:int -> dst:int -> int

  val overflow : t -> src:int -> dst:int -> int

  val invalid : t -> src:int -> dst:int -> int

  val count : t -> src:int -> dst:int -> int
  (** Values offered to the link, under/overflow and invalid included. *)

  val merge : t -> t -> unit
  (** [merge dst src] adds every link of [src] into the same link of
      [dst], first growing [dst] to [src]'s [n].
      @raise Invalid_argument unless the windows are equal. *)
end
