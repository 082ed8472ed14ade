(** E1 - gamma-agreement (Theorem 16): measured skew vs the bound across an
    (eps, rho, P) sweep. *)

val sweep : quick:bool -> (float * float * float) list
(** The (eps, rho, P) configurations, shared with E2. *)

val run_config :
  float * float * float -> Csync_core.Params.t * Scenario.result
(** One configuration's run: its parameters, extreme delays and the
    standard Byzantine cast.  Shared with E2. *)

val label : float * float * float -> string
(** A configuration's cell label, ["eps=%g,rho=%g,P=%g"]. *)

val experiment : Experiment.t
