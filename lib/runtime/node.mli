(** A live protocol node: one UDP socket, one wall-backed clock, one
    automaton - the real-network counterpart of the simulator's cluster
    slot.

    The node runs the same automaton values as the simulator (the
    algorithm code is shared verbatim); only the interrupt sources differ:
    datagrams instead of buffered deliveries, wall-clock deadlines instead
    of engine events.  Messages travel as validated {!Codec} frames; a
    datagram that fails to decode - truncated, oversized, wrong magic,
    corrupted, out-of-range sender, non-finite value - is counted in
    {!malformed} and dropped, never delivered to the automaton and never
    an exception.  Transient socket errors (interrupted syscalls, ICMP
    port refusals from dead peers, full buffers) are retried or counted,
    not raised: a node keeps synchronizing with whoever it can still
    hear.

    Run one node per thread with {!run}; it returns when the wall-clock
    deadline passes.  Every wall time here - deadlines, filter [now],
    {!last_heard} - is a {!Wall_clock.host_now} reading. *)

type t

type filter = now:float -> peer:int -> [ `Deliver | `Drop | `Duplicate ]
(** Per-datagram link hook, consulted on send with the destination pid
    and on receive with the (validated) source pid.  Used by the chaos
    layer to impose loss, partitions, and duplication on live runs. *)

type tap = peer:int -> value:float -> own:float -> unit
(** Passive observation hook, called once per datagram the receive
    filter lets through (even when the filter duplicates delivery):
    [value] is the peer's transmitted clock reading, [own] this node's
    local clock at reception.  The pair is exactly the exchanged-
    timestamp sample the fleet telemetry emitter streams; the tap must
    not block. *)

val create :
  self:int ->
  port:int ->
  peers:(int * int) list ->
  clock:Wall_clock.t ->
  automaton:('s, float) Csync_process.Automaton.t ->
  ?send_filter:filter ->
  ?recv_filter:filter ->
  ?tap:tap ->
  unit ->
  t * (unit -> 's)
(** [peers] maps every pid (including self) to its UDP port on
    localhost.  The state reader is safe to call after {!run} returns. *)

val run : t -> start_at:float -> until:float -> unit
(** Deliver START when the wall clock reaches [start_at], then serve
    datagrams and timers until wall time [until].  Every due timer fires
    each iteration (a burst of traffic cannot starve expired deadlines).
    Closes the socket on return. *)

val messages_sent : t -> int

val messages_received : t -> int
(** Valid frames delivered to the automaton. *)

val malformed : t -> int
(** Datagrams rejected by {!Codec.decode}. *)

val send_errors : t -> int
(** Sends forfeited to transient socket errors (refused, full buffers,
    unreachable). *)

val recv_errors : t -> int
(** Receives lost to transient socket errors. *)

val last_heard : t -> peer:int -> float option
(** Wall time of the last valid frame from [peer], if any. *)

val live_peers : t -> now:float -> within:float -> int list
(** Pids (self included, once heard) whose last valid frame arrived at
    most [within] seconds before [now].  When fewer than [n - f] peers
    are live, this is the set the maintenance automaton averages over
    ({!Csync_core.Maintenance.average_heard}). *)
