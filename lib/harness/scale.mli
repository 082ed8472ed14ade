(** Sharded driver for the struct-of-arrays cluster model
    ({!Csync_process.Soa}) - synchronization rounds at n ~ 10^5 across
    {!Pool} workers.

    Each round splits the destination space into contiguous shards, one
    per worker; a shard fills its slice of the round's estimate rows
    ({!Csync_process.Soa.run_shard}) and sweeps them with
    {!Csync_core.Sweep}.  Results are stitched positionally, and the
    round checksum is a wrap-around sum of per-row hashes (destination id
    plus sorted row), so both the state trajectory and the {!stats}
    checksum are byte-identical for any worker count - the same
    invariant the experiment suite holds through {!Pool}.

    When the ambient {!Csync_obs.Registry} is enabled, each worker
    records into its task's own registry ([scale.events], log-bucketed
    [scale.link_delay] / [scale.local_skew] histograms, [profile.fill] /
    [profile.sweep] spans), which {!Pool.init} folds back in shard-index
    order after the join; the orchestrator times the apply/advance/
    checksum phases through {!Csync_obs.Profile} and pushes per-round
    convergence series.  All of it observes only - results are
    byte-identical with telemetry on or off, and the merged trace is
    byte-identical at any [--jobs] (modulo the wall-clock records a
    canonical trace drops). *)

val round : ?jobs:int -> Csync_process.Soa.t -> int * int
(** Simulate one round across [jobs] shards (default
    {!Pool.default_jobs}), apply every correction, and advance the model.
    Returns [(events, checksum)]: the round's event count (arrivals plus
    one round close per live row) and the wrap-around sum of per-row
    hashes over the swept rows - both independent of [jobs]. *)

type stats = {
  n : int;
  jobs : int;
  shards : int;
  rounds : int;
  events : int;  (** total events across all rounds *)
  checksum : int;  (** fold of the per-round row checksums *)
  state : int;  (** {!state_checksum} of the final model state *)
  spread0 : float;  (** nonfaulty broadcast-time spread before round 1 *)
  spread1 : float;  (** same spread after the last round *)
  local0 : float;  (** worst per-edge spread (local skew) before round 1 *)
  local1 : float;  (** same after the last round *)
}

val run : ?jobs:int -> ?rounds:int -> Csync_process.Soa.t -> stats
(** Run [rounds] (default 1) rounds.  With a dispersion well above eps the
    reduced-midpoint update contracts [spread1] below [spread0]
    (Lemma 9's halving, degraded to the ring's per-row attendance). *)

val state_checksum : Csync_process.Soa.t -> int
(** Checksum over the model's correction variables (and round counter):
    two runs that agree here followed the same trajectory - the
    worker-count identity check in the tests. *)
