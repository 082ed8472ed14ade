(** A system of processes with clocks (Section 2.1's "system"), hosted on
    the discrete-event engine.

    A cluster owns: one hardware clock per process, the global message
    buffer, and one automaton instance per process.  Running the cluster
    delivers buffered messages in (time, priority, insertion) order, steps
    the recipient's automaton, and performs the resulting actions - i.e., it
    implements the execution semantics of Section 2.3.

    Processes are referenced by integer ids [0 .. n-1].  Every fault is an
    automaton: a Byzantine process runs an adversarial one, and a crash -
    with or without the repair and reintegration of Section 9.1 - wraps
    the process' automaton in {!Fault.crash_recover}.  The cluster keeps no
    crash state of its own.

    The one per-message record is the installed monitor's provenance
    ring ({!Csync_obs.Monitor.Prov}): the buffer mints an entry per
    scheduled copy, and the cluster publishes each delivery's id on that
    monitor before stepping the recipient.  Install a monitor before
    {!create} to record; the cluster keeps no trace or hooks of its own. *)

type 'm proc =
  | Proc : ('s, 'm) Automaton.t * 's ref -> 'm proc
      (** An automaton paired with its mutable state cell.  Build with
          {!make_proc} to also obtain a typed state reader for
          instrumentation. *)

val make_proc : ('s, 'm) Automaton.t -> 'm proc * (unit -> 's)
(** Instantiate an automaton; the second component reads the live state
    (e.g. to extract per-round statistics after a run). *)

type 'm t

val create :
  clocks:Csync_clock.Hardware_clock.t array ->
  ?graph:Csync_topo.Graph.t ->
  delay:Csync_net.Delay.t ->
  ?collision:Csync_net.Collision.t ->
  ?exchanges:int ->
  procs:'m proc array ->
  unit ->
  'm t
(** [graph], when given, makes automaton broadcasts neighbor-multicasts
    over that topology (see {!Csync_net.Message_buffer.broadcast});
    without one, broadcasts reach every process - the paper's full mesh.
    [exchanges] (default 1) sizes the engine's event-queue capacity hint:
    the peak in-flight event count is one exchange's broadcast traffic
    (n^2 messages on the mesh, self + out-edges per process on a graph)
    plus a START and TIMER per process; 0 means a messaging-free run.
    The engine's timing wheel takes its bucket width from [delay]'s
    jitter (eps / 2, falling back to delta / 8 for jitter-free models).
    @raise Invalid_argument if [clocks] and [procs] differ in length or
    the graph's size is not [n]. *)

val n : 'm t -> int

val now : 'm t -> float
(** Current real time. *)

val schedule_start : 'm t -> pid:int -> time:float -> unit
(** Place [pid]'s START message with real delivery time [time]. *)

val schedule_starts_at_logical : 'm t -> t0:float -> corrs:float array -> unit
(** Assumption A4 convenience: schedule each process' START for the real
    time at which its initial logical clock (clock + [corrs.(p)]) reads
    [t0], i.e. real time c_p^0(T0). *)

val run_until : 'm t -> float -> unit
(** Deliver every event up to and including the given real time. *)

val phys_time : 'm t -> int -> float
(** Process' physical-clock reading at the current real time. *)

val corr : 'm t -> int -> float
(** Process' current CORR variable (via its automaton's [corr]). *)

val local_time : 'm t -> int -> float
(** L_p(now) = Ph_p(now) + CORR_p.  To sample at a chosen real time, first
    [run_until] that time. *)

val clock : 'm t -> int -> Csync_clock.Hardware_clock.t

val messages_sent : 'm t -> int

val messages_dropped : 'm t -> int

val buffer : 'm t -> 'm Csync_net.Message_buffer.t
