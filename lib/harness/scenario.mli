(** Declarative construction and execution of Welch-Lynch maintenance runs.

    A scenario fixes everything a run depends on - parameters, clock drift
    profiles, the delay model, the Byzantine cast, initial offsets, variant
    knobs, the RNG seed - and {!run} turns it into measurements.  Runs are
    deterministic: the same scenario value always produces the same result.

    Initial synchrony (assumption A4) is realized by giving process p a
    hardware clock that reads T0 at real time o_p, with the o_p spread over
    [0, offset_spread] and offset_spread <= beta; START messages are
    delivered exactly when each initial logical clock reads T0. *)

type clock_kind = Env.clock_kind =
  | Perfect  (** all rates exactly 1 *)
  | Drifting  (** independent random piecewise rates within the rho-band *)
  | Adversarial_drift
      (** alternating processes pinned at the fastest/slowest admissible
          rate - the worst relative drift *)

type delay_kind = Env.delay_kind =
  | Constant_delay  (** every delay = delta *)
  | Uniform_delay  (** uniform in [delta - eps, delta + eps] *)
  | Extreme_delay  (** each delay is delta - eps or delta + eps *)

type fault_spec =
  | Silent
  | Pull of float  (** broadcast shifted by this much each round *)
  | Two_faced of { spread : float; split : int }
  | Adaptive_two_faced of { split : int; faulty_from : int }
      (** spread tracks the measured honest spread - Lemma 9's tight case *)
  | Two_faced_late of { offset_a : float; offset_b : float; split : int }
      (** both sends after the round start, so round 0 is covered *)
  | Jitter of float  (** uniform random shift per round *)
  | Flood of int  (** copies per round *)
  | Lying of float  (** wrong clock value in the message body *)

type t = {
  params : Csync_core.Params.t;
  seed : int;
  averaging : Csync_core.Averaging.t;
  exchanges : int;
  stagger : float;
  clock_kind : clock_kind;
  delay_kind : delay_kind;
  faults : (int * fault_spec) list;  (** pid to behaviour; others honest *)
  offset_spread : float;  (** real-time spread of initial wake-ups *)
  collision : (int * float) option;  (** (buffer capacity, window) *)
  rounds : int;  (** measurement horizon, in rounds *)
  samples_per_round : int;
  graph : Csync_topo.Graph.t option;
      (** communication topology; [None] = the paper's full mesh *)
}

val default : ?seed:int -> Csync_core.Params.t -> t
(** Honest drifting clocks, uniform delays, no faults, offsets spread over
    [0, beta], 30 rounds, 8 samples per round. *)

val with_standard_faults : t -> t
(** Install the standard adversarial cast on the last f pids: one silent,
    one two-faced (spread beta), the rest pulling by +beta. *)

type result = {
  scenario : t;
  nonfaulty : int list;
  sampling : Sampling.t;
  max_skew : float;  (** max sampled local-time skew after warm-up (2 rounds) *)
  steady_skew : float;  (** max over the final third of the samples *)
  adjustments : float array;  (** |ADJ| of every nonfaulty exchange *)
  round_spread : (int * float) list;
      (** per round i, the real-time spread of nonfaulty round starts
          (the quantity the paper bounds by beta) *)
  validity : [ `Holds | `Violated of Sampling.sample ];
  tmin0 : float;
  tmax0 : float;
  messages : int;
  dropped : int;
  histories : (int * Csync_core.Maintenance.round_record list) list;
      (** per nonfaulty pid *)
}

val run : t -> result
(** Run under the installed monitor: its checks see every sample, and its
    provenance ring ({!Csync_obs.Monitor.Prov}) records every message
    copy, ids [0 .. messages - 1] when the monitor is fresh.  A monitor
    with no checks ([Monitor.create ~checks:[] ()]) records only the
    messages; that is how [csync simulate --trace] reads them. *)
