(** Execution of chaos fault plans against a simulated cluster.

    A plan ({!Csync_chaos.Plan}) is compiled into the simulation at four
    layers: link faults and partitions become a message-buffer tamper
    ({!Csync_chaos.Injector}), clock disturbances are spliced into the
    victims' drift profiles before the clocks are frozen, crash/recover
    pairs wrap the victim's automaton in {!Csync_process.Fault.crash_recover}
    with a Section 9.1 reintegration automaton (woken with a garbage
    correction) as the recovery path, and [State_corrupt] events wrap the
    victim in the {!Csync_core.Stabilize} recovery wrapper, which overwrites
    the maintenance state with adversarial garbage at the scheduled instant
    and must then detect the breach and reintegrate on its own.

    The agreement check is suspect-aware: at each sample the plan's blame
    windows ({!Csync_chaos.Plan.suspects_at}, with a settle time of five
    rounds) name the processes currently outside the paper's assumptions.
    A corrupted process' window closes only once the wrapper has actually
    re-admitted it, so the runner feeds the observed readmission times back
    into the blame computation.  Whenever at most [f] processes are suspect,
    the remaining ones form a legitimate nonfaulty set and their skew must
    respect Theorem 16's gamma; samples with more concurrent suspects prove
    nothing and are skipped (campaign-generated plans never produce any).

    Corrupted processes additionally feed the eventual-property monitors
    ({!Csync_obs.Monitor.Stabilization}, {!Csync_obs.Monitor.Reconvergence}):
    each sample reports whether the process is back within gamma of the
    clean set and how far its correction sits from the clean median. *)

type t = {
  params : Csync_core.Params.t;
  seed : int;
  plan : Csync_chaos.Plan.t;
  rounds : int;
}
(** A partitioned victim hears fewer than [n - f] senders, or nobody;
    {!Csync_core.Maintenance.average_heard} then averages the senders it
    did hear, or free-runs, instead of averaging stale ARR entries into
    its correction. *)

val make :
  ?seed:int ->
  ?rounds:int ->
  params:Csync_core.Params.t ->
  Csync_chaos.Plan.t ->
  t
(** Defaults: seed 42, 24 rounds. *)

type recovery = {
  pid : int;
  recover_time : float;
  join_round : int option;  (** None: never rejoined *)
  post_join_skew : float;
      (** worst clean-set skew this process took part in after joining and
          leaving suspicion; 0 if never sampled *)
}

type stabilization = {
  corrupted_pid : int;
  corrupted_at : float;  (** real time of the pid's last corruption *)
  severity : float;  (** largest severity thrown at the pid *)
  wrapper_breaches : int;
      (** envelope/stuck detector firings (reintegrations started); 0 when
          the corruption was absorbed by ordinary averaging *)
  applied : int;  (** scheduled corruptions actually applied *)
  readmitted_at : float option;
      (** real time the wrapper re-admitted the process (breach-free:
          a fixed few rounds after the corruption; breached: the round
          after its reintegration joined); [None] if still recovering *)
  healthy_at_end : bool;
  stabilized_in : float;
      (** seconds from the last corruption to the last sample the process
          spent outside gamma against the clean set; 0. if it never left *)
}

type result = {
  gamma : float;
  max_clean_skew : float;
      (** worst skew over the non-suspect processes, across all checked
          samples *)
  checked_samples : int;  (** samples with at most f concurrent suspects *)
  skipped_samples : int;
  max_suspects : int;
  recoveries : recovery list;  (** one per crash with a recovery *)
  stabilizations : stabilization list;
      (** one per state-corrupted process *)
  stats : Csync_chaos.Injector.stats;  (** what the injector actually did *)
}

val run : t -> result
(** Build the cluster, install the plan, run [rounds] rounds sampling eight
    times per round after a two-round warm-up.
    @raise Invalid_argument if the plan fails validation. *)

val agreement_ok : result -> bool
(** At least one checked sample and [max_clean_skew <= gamma]. *)

val recoveries_ok : result -> bool
(** Every crashed-and-recovered process rejoined and stayed within gamma
    afterwards.  Vacuously true without recoveries. *)

val stabilization_bound : params:Csync_core.Params.t -> float
(** [Stabilize.recovery_round_bound] in real seconds: the allowance the
    stabilization verdict (and monitor) grants a corrupted process. *)

val stabilizations_ok : params:Csync_core.Params.t -> result -> bool
(** Every state-corrupted process had its corruptions applied, ended the
    run healthy, and re-entered gamma within {!stabilization_bound}.
    Vacuously true without corruptions. *)

val ok : result -> bool

type campaign_run = { seed : int; plan : Csync_chaos.Plan.t; result : result }

val single :
  ?rounds:int ->
  ?corrupt:bool ->
  params:Csync_core.Params.t ->
  seed:int ->
  unit ->
  campaign_run
(** One generated plan + run for one seed ({!Csync_chaos.Gen.random},
    faults placed in rounds 2 to [rounds - 12] so every recovery and settle
    window closes before the run ends); even seeds are forced to include a
    crash/recovery.  [corrupt] (default false) turns on
    {!Csync_chaos.Gen.spec}'s [include_corrupt], forcing a transient state
    corruption into every plan.  Fully determined by the arguments, so
    campaigns can fan out seed-per-worker.
    @raise Invalid_argument if [rounds < 15]. *)

val campaign :
  ?rounds:int ->
  ?corrupt:bool ->
  ?jobs:int ->
  params:Csync_core.Params.t ->
  seeds:int list ->
  unit ->
  campaign_run list
(** {!single} for every seed, fanned out over the {!Pool} ([jobs] defaults
    to {!Pool.default_jobs}); results are in [seeds] order for any [jobs].
    @raise Invalid_argument if [rounds < 15]. *)
