(** Online theorem monitors with causal message provenance.

    A monitor evaluates the paper's closed-form bounds {e while a run
    executes} instead of after it: the agreement bound gamma across
    nonfaulty logical clocks (Theorem 16), the validity envelope
    alpha1/alpha2/alpha3 (Theorem 19), the per-round |ADJ| bound
    (Theorem 18), and the per-round error-halving recurrence
    (Lemmas 9/10).  Each check records the {e first} violation with the
    round, process, measured value and bound — and, for the adjustment
    check, the causal provenance of the ARR slots behind the offending
    ADJ: which message, sent when, delayed by how much, touched by which
    injected chaos faults.

    The module mirrors {!Registry}'s ambient-installation discipline: a
    monitor is either {e enabled} (created by [csync ... --monitor] or a
    test) or the shared disabled singleton {!none}; instrumented
    components capture {!installed} at creation time, and handles minted
    from a disabled monitor are permanent no-ops (a single branch —
    measured by the [obs/monitor-check-disabled] bench kernel).

    {b One writer per monitor; [Pool] hands out children.}  A monitor's
    counts, first violations and provenance ring are plain mutable
    fields with no atomics or locks, so at any moment at most one worker
    may record into a given monitor.  As for the registry, when the
    ambient monitor is enabled [Csync_harness.Pool.init] gives every task
    its own {!child}, installs it on the worker for the duration of the
    task, and after the join {!merge}s the children into the parent in
    task-index order - so verdicts, first violations and provenance ids
    do not depend on [--jobs].

    The cardinal invariant carries over: monitors only observe.  They
    draw no randomness, alter no scheduling, and a monitored run's
    experiment tables are byte-identical to an unmonitored run's at any
    [--jobs]. *)

type t

type check =
  | Agreement
  | Validity
  | Adjustment
  | Halving
  | Stabilization
      (** eventual: a corrupted process re-enters gamma within R rounds
          of its last corruption *)
  | Reconvergence
      (** eventual: a corrupted process' correction returns within a
          bound of the clean processes' *)
  | Local_skew
      (** gradient property: skew between processes at graph distance d
          stays within [kappa * d] ({!Csync_topo} runs) *)

val all_checks : check list

val none : t
(** The disabled singleton. *)

val create : ?checks:check list -> ?tighten:float -> unit -> t
(** A fresh enabled monitor evaluating [checks] (default: all of them).
    [tighten] multiplies every bound (default [1.0]); values [< 1.0]
    tighten the bounds beyond the theorems, the standard way to force a
    violation and exercise extraction (cf. [csync check --weaken-gamma]). *)

val enabled : t -> bool

val install : t -> unit
(** Make [t] the ambient monitor captured by components created from now
    on.  Call before constructing the monitored run. *)

val installed : unit -> t
(** The ambient monitor of this worker ({!none} unless {!install} was
    called on it); worker-local like {!Registry.installed}. *)

val clear_installed : unit -> unit

(** {2 Per-task children} *)

val child : t -> t
(** A fresh enabled monitor with [t]'s checks and [tighten], or {!none}
    if [t] is {!none}.  Record into it on one worker, then {!merge} it
    back. *)

val merge : into:t -> t -> unit
(** Fold a child into [into], as if its recording had happened there
    directly after everything [into] already holds: evaluation and
    violation counts add; a first violation (per check and overall) is
    kept only where [into] has none; the child's provenance ids are
    renumbered past [into]'s mint count, which advances by the child's.
    No-op if either monitor is {!none}. *)

(** {2 Causal message provenance}

    [Message_buffer.send] mints one provenance id per scheduled message
    copy; the id rides the delivery to the receiving automaton (via the
    monitor's current-delivery field, set by [Cluster]), lands in the
    ARR-slot shadow array of [Maintenance], and is resolved back into the
    message's (src, dst, sent, delay, faults) when an adjustment
    violation names it.

    Ids are per monitor: each counts its own mints from 0, and {!merge}
    renumbers a child's ids past the parent's, which reproduces the ids
    a one-worker run mints.  Entries live in a ring that starts at one
    slot and grows on demand up to 65536; the last 65536 ids a monitor
    minted resolve through {!find} on that monitor (not on its parent).
    A violation resolves its ids immediately, so eviction only affects
    post-hoc lookups.

    The ring stores entries flat, one array per field (id, endpoints,
    send time, delay, fault kinds), in chunks of 512 slots added as the
    ring fills, not as entry records: a {!mint} overwrites preallocated
    slots and allocates nothing once the ring has room, and {!find}
    builds the {!entry} on demand. *)

module Prov : sig
  type id = int

  val null : id
  (** The id minted by a disabled monitor; never resolves. *)

  val mint :
    t -> src:int -> dst:int -> sent:float -> delay:float -> id
  (** Record one scheduled message copy.  Any fault kinds staged on [t]
      are attached to the entry ({e not} cleared — every copy of a
      duplicated send shares them; the sender calls {!clear_staged} once
      the send is fully scheduled). *)

  val stage_fault : t -> string -> unit
  (** Note that the fault [kind] touched the message currently being
      sent; attached to every {!mint} until {!clear_staged}. *)

  val clear_staged : t -> unit
  (** Clear staged fault kinds: after the last copy of a send is minted,
      or when the message was dropped and no copy will carry them. *)

  val set_current : t -> id -> unit
  (** Delivery side-channel, set by the cluster just before
      dispatching a delivery to its automaton. *)

  val current : t -> id

  type entry = {
    id : id;
    src : int;
    dst : int;
    sent : float;  (** real send time *)
    delay : float;  (** total applied delay, including chaos extra *)
    faults : string list;  (** chaos fault kinds that touched this copy *)
  }

  val find : t -> id -> entry option
  (** [None] for {!null}, unminted ids, and ring-evicted entries. *)
end

(** {2 Violations} *)

type slot = { pid : int; prov : Prov.id; fresh : bool }
(** One ARR slot at the moment of an update: the process it came from,
    the provenance of the last message that wrote it, and whether that
    message arrived in the current round. *)

type violation = {
  monitor : check;
  label : string;  (** experiment-cell label in force on the worker *)
  round : int option;
  pid : int option;
  time : float;  (** sample real time, or the round index for Halving *)
  measured : float;
  bound : float;
  provenance : (Prov.entry * bool) list;
      (** resolved ARR provenance (adjustment violations only), paired
          with the slot's freshness; fresh slots first, then stale ones *)
}

(** {2 Check handles}

    All handles are no-ops when minted from a disabled monitor or for a
    check outside the monitor's [checks] list. *)

module Agreement : sig
  type handle

  val handle : t -> gamma:float -> from_time:float -> handle
  (** Check samples at [time >= from_time] (the warmup horizon; before
      it the theorem makes no claim) against [skew <= gamma]. *)

  val check : handle -> time:float -> skew:float -> unit
end

module Validity : sig
  type handle

  val handle :
    t ->
    alpha1:float ->
    alpha2:float ->
    alpha3:float ->
    t0:float ->
    tmin0:float ->
    tmax0:float ->
    handle

  val check : handle -> time:float -> min_local:float -> max_local:float -> unit
  (** The Theorem 19 envelope:
      [alpha1 (t - tmax0) - alpha3 <= L(t) - t0 <= alpha2 (t - tmin0) + alpha3]
      for the slowest and fastest nonfaulty logical clocks, with the same
      float-noise tolerance as the offline [Sampling.validity_check]. *)
end

module Adjustment : sig
  type handle

  val handle : t -> bound:float -> pid:int -> handle

  val active : handle -> bool
  (** [false] on no-op handles; guards the provenance shadow-array work. *)

  val check :
    handle ->
    round:int ->
    time:float ->
    adj:float ->
    slots:(unit -> slot array) ->
    unit
  (** Check [|adj| <= bound].  [slots] is called only on a violation, and
      then resolved into {!Prov.entry} values immediately, so a passing
      update never builds its slot array.  [time] is the process'
      physical-clock reading at the update (recorded for the report;
      monitors never read wall clocks). *)
end

module Halving : sig
  type handle

  val handle : t -> recurrence:(float -> float) -> handle
  (** [recurrence b] is the Lemma 9/10 bound on the next round's
      closeness given this round's closeness [b]
      ({!Csync_core.Bounds.maintenance_recurrence} in practice). *)

  val observe : handle -> round:int -> spread:float -> unit
  (** Feed per-round real-time round-start spreads in round order; each
      consecutive pair [(r, b)], [(r+1, b')] is checked against
      [b' <= recurrence b].  Non-consecutive rounds reset the chain. *)
end

(** {2 Eventual-property handles}

    Unlike the invariant monitors, these carry per-process {e obligations}
    opened by [corrupted] (a later corruption of the same process replaces
    the obligation - the properties are anchored on the {e last}
    corruption).  An obligation resolves as a violation when the property
    still fails at an observation past its deadline, or as a pass at
    [finish] once the run has covered the deadline violation-free;
    deadlines the run never reaches are inconclusive and not counted.
    Each obligation carries a minted provenance entry naming the
    [state-corrupt] fault, so a first violation names the corruption that
    caused it. *)

module Stabilization : sig
  type handle

  val handle : t -> rounds:int -> big_p:float -> handle
  (** The allowance is [rounds * big_p] real seconds ([tighten]
      multiplies it); [rounds] is the wrapper's
      [Stabilize.recovery_round_bound] in practice. *)

  val active : handle -> bool

  val corrupted : handle -> pid:int -> time:float -> unit

  val observe : handle -> pid:int -> time:float -> within_gamma:bool -> unit
  (** Feed each agreement sample of a corrupted process: an out-of-gamma
      sample past the obligation's deadline is a violation (measured:
      seconds since the corruption). *)

  val finish : handle -> time:float -> unit
  (** End of run at real time [time]: resolve covered obligations. *)
end

module Reconvergence : sig
  type handle

  val handle : t -> rounds:int -> big_p:float -> bound:float -> handle
  (** After [rounds * big_p] seconds, the correction gap must be within
      [bound] ([tighten] multiplies the gap bound). *)

  val active : handle -> bool

  val corrupted : handle -> pid:int -> time:float -> unit

  val observe : handle -> pid:int -> time:float -> gap:float -> unit
  (** [gap] is the caller's measure of how far the process' correction
      sits from the clean processes' (e.g. distance to their median). *)

  val finish : handle -> time:float -> unit
end

module Local_skew : sig
  type handle

  val handle : t -> kappa:float -> handle
  (** [kappa] is the per-hop skew allowance (the gradient rule's fixed
      point, [Csync_topo.Gradient.kappa] in practice); [tighten]
      multiplies it. *)

  val active : handle -> bool

  val check : handle -> round:int -> time:float -> dist:int -> skew:float -> unit
  (** Check one observed pair: processes at graph distance [dist] with
      clock (or round-start) skew [skew] must satisfy
      [skew <= kappa * dist].  [dist <= 0] (same process, or unreachable)
      is ignored. *)
end

(** {2 Results} *)

val checks_performed : t -> int
(** Total bound evaluations across every check. *)

val violations_total : t -> int

val first_violation : t -> violation option
(** The overall first violation recorded: in recording order within one
    worker, and across pool tasks in task-index order. *)

val results : t -> (check * int * int * violation option) list
(** Per monitor in fixed order: (check, evaluations, violations, first
    violation).  Monitors outside [checks] report zero evaluations. *)

val check_name : check -> string

val dump : t -> Json.t list
(** One [{"record":"monitor", ...}] JSON object per configured check,
    for appending to a [csync trace] JSONL capture. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line-per-monitor human summary (used by the CLI after a
    monitored run). *)
