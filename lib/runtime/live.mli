(** Orchestration of a live multi-node run on localhost UDP - the
    repository's counterpart of the paper's AT&T Bell Labs deployment
    (Section 9.3).

    Each node runs in its own thread with an injected clock offset and
    rate; because the injections are known, the true synchronized skew can
    be computed exactly after the run: node p's local time exceeds wall
    time by offset_p + rate-drift + CORR_p, so the final skew is the
    spread of those quantities. *)

type node_report = {
  pid : int;
  injected_offset : float;  (** clock offset vs wall time at epoch *)
  injected_rate : float;
  final_corr : float;
  rounds : int;
  corruptions : int;
      (** transient state corruptions the Stabilize wrapper applied *)
  breaches : int;
      (** wrapper detector firings (recoveries through reintegration) *)
  sent : int;
  received : int;
  malformed : int;  (** datagrams rejected by the wire codec *)
  send_errors : int;  (** sends forfeited to transient socket errors *)
}

type report = {
  nodes : node_report list;
  initial_skew : float;  (** spread of injected offsets over the launched nodes *)
  final_skew : float;
      (** spread of (offset + corr) - the synchronized local times' spread
          at the end of the run (rate drift over the run included) *)
  duration : float;
}

val run_maintenance :
  ?base_port:int ->
  ?seed:int ->
  ?plan:Csync_chaos.Plan.t ->
  ?active:int list ->
  ?telemetry_port:int ->
  ?telemetry_period:float ->
  ?restart:int * float * float ->
  params:Csync_core.Params.t ->
  duration:float ->
  ?stagger:float ->
  unit ->
  report
(** Launch maintenance nodes on consecutive UDP ports, with initial
    offsets spread over [0, beta] and rates inside the rho-band, run for
    [duration] wall seconds, and report.  Blocking.

    [plan] imposes chaos events on the live links (loss, partitions,
    duplication; times relative to the shared epoch) via each node's
    receive filter; [State_corrupt] events are staged into the victim's
    {!Csync_core.Stabilize} wrapper, which overwrites its state at the
    scheduled instant and must then detect the breach and recover on its
    own (every node runs under the wrapper; detection is enabled on the
    corrupted ones).  [active] launches only the listed pids (default:
    all [n]); a node that hears fewer than [n - f] peers averages over
    those it heard ({!Csync_core.Maintenance.average_heard}), so this
    demonstrates graceful operation of a partial deployment, the missing
    peers showing up only as send errors.

    [telemetry_port] gives every node its own {!Emitter}: an enabled
    registry plus exchanged-timestamp samples from the node's receive
    tap, streamed as btrace segments every [telemetry_period] (default
    0.25 s) seconds to the collector on that localhost UDP port.

    [restart = (pid, stop_at, resume_at)] (seconds after the shared
    epoch, with [0 < stop_at < resume_at < duration]) crashes [pid] at
    [stop_at] - thread returns, socket closes, automaton state lost -
    and restarts it at [resume_at] as a fresh process that rejoins
    through Section 9.1 reintegration (observe, collect, join) before
    continuing as plain maintenance; its telemetry resumes on a fresh
    stream, exercising the collector's reconnect path.  The reported
    [final_corr]/[rounds] and message counters for that pid cover the
    restarted instance.  Requires the default [stagger = 0].

    @raise Invalid_argument on an out-of-range active pid, an invalid
    plan, or a restart window out of order. *)
