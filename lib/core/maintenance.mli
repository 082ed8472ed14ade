(** The Welch-Lynch clock synchronization maintenance algorithm
    (Section 4.2), as a process automaton.

    Each process alternates between two phases, toggled by its FLAG:

    - BCAST: when its logical clock reaches T (the round start), it
      broadcasts T, sets a timer for T + (1+rho)(beta+delta+eps), and flips
      to UPDATE;
    - UPDATE: when that timer fires, it averages the recorded arrival times
      with the fault-tolerant averaging function,
      AV = mid(reduce(ARR)), computes ADJ = T + delta - AV, adds ADJ to its
      correction (switching to its next logical clock), advances T by P, and
      sets a timer for the new T.

    Any arriving ordinary message stores its local arrival time in ARR
    indexed by sender, exactly as in the paper; entries are never reset, so
    a silent process leaves a stale value that {!average_heard} keeps out of
    AV, counting the senders heard since the previous update.

    The messages carry the round's clock value T^i as a float.

    Three paper-described variants are supported through {!config}:
    - the averaging function can be the mean or median instead of the
      midpoint (Section 7),
    - [exchanges] > 1 performs k exchange-and-adjust cycles bunched at the
      start of each round of length P, spaced by the minimum admissible
      mini-round gap (Section 7's k-exchange discussion: beta approaches
      4 eps + 2 rho P 2^k/(2^k - 1)),
    - [stagger] > 0 makes process p broadcast at T + p*sigma with arrival
      times compensated by the known offset (the Section 9.3 Ethernet fix).
*)

type phase = Bcast | Update

type round_record = {
  round : int;  (** full round index i *)
  exchange : int;  (** sub-exchange within the round, 0 .. k-1 *)
  t_value : float;  (** the clock value broadcast (T^i plus sub-offset) *)
  broadcast_phys : float;  (** physical-clock reading at broadcast *)
  update_phys : float;  (** physical-clock reading at the update *)
  av : float;  (** AV: the fault-tolerantly averaged arrival time *)
  adj : float;  (** ADJ = T + delta - AV *)
  corr_after : float;  (** CORR after applying ADJ *)
  arrivals : int;  (** distinct senders heard since the previous update *)
}

type state

type config = private {
  params : Params.t;
  averaging : Averaging.t;
  exchanges : int;
  stagger : float;
  initial_corr : float;
}

val config :
  ?averaging:Averaging.t ->
  ?exchanges:int ->
  ?stagger:float ->
  ?initial_corr:float ->
  Params.t ->
  config
(** Defaults: midpoint averaging, one exchange per round, no stagger,
    zero initial correction.
    @raise Invalid_argument if [exchanges < 1] or [stagger < 0]. *)

val average_heard :
  ?scratch:Csync_multiset.Scratch.buf ->
  config ->
  t:float ->
  arr:float array ->
  heard:bool array ->
  float
(** AV for the exchange that broadcast [t]; [heard.(q)] says [arr.(q)] was
    written since the previous update.  With at least [n - f] heard, or an
    unreduced [averaging], it is the paper's rule over all of [arr]: every
    unheard entry is older than every heard one, so [reduce] discards it
    among the [f] lowest.  With fewer, it averages the heard values alone,
    discarding [Sweep.g_of ~f ~count] extremes per side, so no stale entry
    reaches CORR.  With nobody heard it is [t + delta] (ADJ = 0). *)

val initial_state : config -> self:int -> state
(** The phase-BCAST state a process starts in (also the automaton's
    initial state). *)

val automaton : self_hint:int -> config -> (state, float) Csync_process.Automaton.t
(** The automaton for one process.  [self_hint] must equal the process id
    the automaton will run as (it determines the stagger offset and is
    checked at the first interrupt).  Its [initial] state is built once and
    {!handle} consumes it, so run each automaton value as one process. *)

val create : self:int -> config -> float Csync_process.Cluster.proc * (unit -> state)
(** Instantiate for process [self]; the reader exposes the live state. *)

(** {1 State accessors (for instrumentation and tests)} *)

val corr : state -> float

val current_t : state -> float
(** The T variable: start (in local time) of the current round. *)

val current_phase : state -> phase

val rounds_completed : state -> int

val history : state -> round_record list
(** Completed exchanges, oldest first. *)

val arr : state -> float array
(** Copy of the ARR array (local arrival times; {!arr_sentinel} for
    never-heard-from senders).  A snapshot: later messages handled on the
    state do not change it. *)

val fresh : state -> bool array
(** Copy of the per-sender freshness flags: true iff that sender was heard
    since the previous update.  A snapshot, like {!arr}. *)

val arr_sentinel : float
(** The "initially arbitrary" value entries start at. *)

val corrupt : config -> severity:float -> salt:float -> state -> state
(** Transient-fault injection (the chaos layer's [State_corrupt]):
    deterministically overwrite the state with adversarial garbage scaled
    by [severity] in (0, 1] - the correction is always pushed off by
    [sign(salt) * severity * 4 * beta]; severity >= 1/2 additionally fills
    ARR with fresh garbage arrival times; severity >= 3/4 also pushes the
    broadcast deadline ~2.5 rounds out (a stuck timer).  [salt] seeds the
    garbage pattern.  The round value T is left intact, so the victim does
    not become a Byzantine sender. *)

(** {1 Reintegration support (Section 9.1)} *)

val state_for_rejoin :
  config -> corr:float -> next_t:float -> round:int -> state
(** A state ready to resume the main algorithm at round [round] with round
    start [next_t]: phase BCAST, timer expected at [next_t] (the caller
    must arrange the timer).  Used by {!Reintegration}. *)

val handle :
  ?scratch:Csync_multiset.Scratch.buf ->
  config ->
  self:int ->
  phys:float ->
  float Csync_process.Automaton.interrupt ->
  state ->
  state * float Csync_process.Automaton.action list
(** The raw transition function (exposed so {!Reintegration} can delegate to
    it after joining).  [scratch], when given, is reused for the per-update
    sort of the arrival array ({!Csync_multiset.Scratch}); results are
    identical with or without it.

    [handle] consumes the state it is given: a message writes ARR and the
    freshness flag in place and returns the same state, so the arrival path
    allocates only the result pair.  Thread states linearly and do not
    handle an earlier state again; take {!arr}/{!fresh} copies to keep a
    snapshot.  {!initial_state} and {!state_for_rejoin} build fresh arrays
    on every call, and {!corrupt} copies. *)
