(** Generic Byzantine fault strategies and combinators.

    The paper models faults as processes whose transitions are unconstrained
    (Section 2.3).  We realize them as ordinary automata with adversarial
    behaviour.  This module holds the protocol-agnostic strategies; attacks
    that exploit the structure of a specific algorithm (e.g. timing attacks
    on the Welch-Lynch round schedule) live next to that algorithm.

    All strategies here are well-typed in the protocol's message type, so a
    faulty process can inject arbitrary {e values} but not ill-formed
    messages - the standard Byzantine model for typed channels. *)

val silent : unit -> ('m Cluster.proc * (unit -> unit))
(** Never reacts to anything: a crash-from-the-start / omission fault. *)

val periodic :
  name:string ->
  first_phys:float ->
  period_phys:float ->
  (self:int -> phys:float -> count:int -> 'm Automaton.action list) ->
  'm Cluster.proc * (unit -> int)
(** Wakes itself every [period_phys] of its own physical clock starting at
    [first_phys] and performs the supplied actions; [count] is the number of
    prior firings.  The reader returns how many times it has fired.  The
    scheduled timers use the physical clock, so a drifting faulty clock
    perturbs the firing times - as it would in reality. *)

type ('a, 'b) lifecycle = Running of 'a | Down of 'a | Recovered of 'b
(** State of a {!crash_recover} process: the original automaton's state
    while healthy, the frozen pre-crash state while down, the recovery
    automaton's state after repair. *)

val recovered_state : ('a, 'b) lifecycle -> 'b option

val crash_recover :
  crash_phys:float ->
  recover_phys:float ->
  recovery:('b, 'm) Automaton.t ->
  ('a, 'm) Automaton.t ->
  (('a, 'b) lifecycle, 'm) Automaton.t
(** Crash failure followed by repair (the Section 9.1 scenario): run the
    wrapped automaton until its physical clock reaches [crash_phys], stay
    completely silent until [recover_phys], then - at the first interrupt
    after repair - boot [recovery] from its initial state with a fresh
    START (replaying the waking interrupt into it when it is a message,
    since the repaired process really receives it).  A timer armed before
    the crash is dropped while the process is down, and also when it is the
    interrupt that wakes it; once [Recovered], every interrupt - a stale
    pre-crash timer included - goes to [recovery].  With [recover_phys =
    infinity] this is a crash with no repair: silent forever from
    [crash_phys] on.  Pair with {!Csync_core.Reintegration} as the recovery
    automaton to model a repaired process rejoining the synchronized pack.
    @raise Invalid_argument if [recover_phys <= crash_phys]. *)
