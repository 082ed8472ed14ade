(** A "hardware clock" backed by the host's wall clock, for running the
    algorithm on a real network (Section 9.3's deployment story).

    Since all nodes in a single-machine demo share the same underlying
    oscillator, drift and offset are injected: the clock reads
    [offset + rate * (wall - epoch)], with [rate] in the rho-band.  The
    injected parameters are known to the harness (not to the algorithm),
    so the true skew of the synchronized clocks can be computed exactly.

    Its "wall" time is {!host_now}: the host's monotonic clock, so a
    host clock step does not step it.  Every deadline of the live
    runtime is on that same clock. *)

type t

val host_now : unit -> float
(** {!Csync_obs.Registry.now_ns} in seconds: the live runtime's one
    clock, from an unspecified epoch. *)

val create : ?epoch:float -> offset:float -> rate:float -> unit -> t
(** [epoch] defaults to {!host_now}[ ()].
    @raise Invalid_argument if [rate <= 0]. *)

val now : t -> float
(** The clock's current reading (Ph of wall-now). *)

val of_wall : t -> float -> float
(** Reading at a given wall time. *)

val wall_of : t -> float -> float
(** Wall time at which the clock reads the given value (Ph^-1). *)

val rate : t -> float

val offset : t -> float
