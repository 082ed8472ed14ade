(** Fleet telemetry emitter: streams one live node's metrics to the
    collector as [csync-btrace/1] segments over UDP {!Codec} telemetry
    frames.

    Each node gets its own enabled {!Csync_obs.Registry} ({!registry});
    exchanged-timestamp samples arrive through {!sample} (wired to the
    node's receive tap) into bounded per-peer buffers.  Every [period]
    seconds — checked on the sampling path, no extra thread — the
    emitter ships one {e self-contained} segment: btrace magic, the node
    manifest, a registry snapshot, [emit.*] accounting counters, and a
    [fleet.offset.p<j>] series per peer heard since the last flush.

    Telemetry can never stall the sync loop: the socket is non-blocking,
    failed sends shed the rest of the segment, and full sample buffers
    shed the sample — all counted in {!drops} and reported in-stream as
    [emit.drops].  Because every segment restarts the stream from its
    magic, any loss costs at most one segment and the collector
    resynchronizes at the next. *)

type t

val create :
  src:int ->
  peers:int ->
  port:int ->
  ?period:float ->
  ?on_flush:(Csync_obs.Registry.t -> unit) ->
  manifest:Csync_obs.Json.t ->
  unit ->
  t
(** [src] is the node id stamped on telemetry frames; [peers] the fleet
    size (sample buffers are indexed by peer pid); [port] the collector's
    UDP port on localhost.  [period] (default 0.25 s) is the flush
    cadence; each peer buffers at most 512 samples between flushes.
    [on_flush] runs against the registry just before each snapshot — the
    place to poll gauges (round, message counters) from node state.  [manifest] is re-emitted at the head of every segment.
    @raise Invalid_argument on a negative [src] or nonpositive
    [peers]/[period]. *)

val registry : t -> Csync_obs.Registry.t
(** The node's own enabled registry; everything in it is shipped as a
    snapshot with each segment (use gauges/counters — cumulative kinds —
    not series). *)

val sample : t -> peer:int -> own:float -> value:float -> unit
(** Record one exchanged-timestamp observation: [own] this node's clock
    reading at reception, [value] the peer's transmitted reading.  The
    stored sample is the one-way offset [own - value] stamped with
    {!Csync_obs.Registry.now_ns}.  Triggers a flush when the period has
    elapsed.  Never blocks, never raises. *)

val flush : t -> unit
(** Encode and ship a segment now. *)

val drops : t -> int
(** Frames and samples shed so far. *)

val frames_sent : t -> int

val close : t -> unit
(** Final flush, then close the socket.  Idempotent; {!sample} and
    {!flush} become no-ops. *)
