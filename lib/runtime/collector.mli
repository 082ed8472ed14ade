(** Fleet telemetry collector: the UDP fan-in for [csync collect] and
    [csync fleet].

    One socket accepts every node's telemetry stream concurrently.  Each
    datagram is validated by {!Codec.decode_tel} — scanners' garbage and
    corrupted frames are counted in {!rejected} and dropped — and fed to
    {!Csync_obs.Collect}, which reassembles per-node btrace streams
    (tolerating loss, truncation, and reconnects independently per node)
    and merges them into one canonical fleet trace.

    Snapshots go to disk atomically (write to [path ^ ".tmp"], then
    rename), so a concurrent [csync top --fleet] or [csync report
    --fleet] never reads a half-written merge. *)

type t

val create : ?port:int -> ?max_src:int -> unit -> t
(** Bind a UDP socket on localhost.  [port] defaults to 0 (ephemeral —
    read the assignment back with {!port}); [max_src] (default 4095)
    bounds accepted node ids. *)

val port : t -> int
(** The bound UDP port. *)

val collect : t -> Csync_obs.Collect.t
(** The underlying merge state (stats, merged trace). *)

val rejected : t -> int
(** Datagrams that failed {!Codec.decode_tel}. *)

val poll : t -> timeout:float -> unit
(** Serve incoming datagrams for up to [timeout] seconds, draining any
    backlog before returning.  Never raises on transient socket
    errors. *)

val write_snapshot : t -> string -> unit
(** Atomically write the current merged fleet trace to a file. *)

val close : t -> unit

val serve :
  t ->
  out:string ->
  ?snapshot_period:float ->
  ?duration:float ->
  ?stop:bool Atomic.t ->
  unit ->
  unit
(** The collector loop: serve datagrams, atomically rewriting [out] every
    [snapshot_period] (default 1 s) seconds, until [duration] seconds
    have passed or [stop] is set (seen within 0.1 s), whichever comes
    first; then write a final snapshot.  With neither it serves until the
    process ends.  Deadlines run on the monotonic clock. *)

val run :
  ?port:int ->
  ?max_src:int ->
  out:string ->
  duration:float ->
  ?snapshot_period:float ->
  unit ->
  Csync_obs.Collect.node_stats list * int
(** [csync collect]: create, {!serve} for [duration] seconds, close.
    Returns the per-node stats and the rejected-datagram count. *)
