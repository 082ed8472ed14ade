(** E15: self-stabilization under transient state corruption - the
    {!Csync_core.Stabilize} recovery wrapper's stabilization time as a
    function of corruption breadth (1 to f simultaneous victims) and
    severity, checked against the derived round bound R. *)

val plan :
  params:Csync_core.Params.t -> breadth:int -> severity:float -> Csync_chaos.Plan.t
(** One cell's plan: corruptions of pids 1 .. [breadth] from round 5 on. *)

val experiment : Experiment.t
