(* Tests for the lib/check bounded model checker.

   The load-bearing test is the checker-vs-replay equality (satellite of
   the subsystem): for every schedule of a small scope, the outcome the
   checker computed through its per-round mini-simulations must equal -
   bit for bit - the skew of one continuous run of the production stack
   under the same concrete delays and Byzantine agenda.  That equality is
   what makes a counterexample found in the canonical state space a real
   execution of the simulator. *)

open Helpers
module Scope = Csync_check.Scope
module Step = Csync_check.Step
module Byz = Csync_check.Byz
module State = Csync_check.State
module Props = Csync_check.Props
module Cex = Csync_check.Cex
module Explorer = Csync_check.Explorer
module Replay = Csync_check.Replay
module Mon = Csync_obs.Monitor
module Params = Csync_core.Params
module Plan = Csync_chaos.Plan

let t name f = Alcotest.test_case name `Quick f

let check_exact name a b =
  if not (Float.equal a b) then Alcotest.failf "%s: %h <> %h" name a b

(* Mixed-radix enumeration of every per-receiver delay-column assignment:
   [f] is called with each [cols] array, each entry in [0, ncols). *)
let iter_cols ~n ~ncols f =
  let cols = Array.make n 0 in
  let rec go i = if i = n then f cols
    else
      for c = 0 to ncols - 1 do
        cols.(i) <- c;
        go (i + 1)
      done
  in
  go 0

let pow b e =
  let r = ref 1 in
  for _ = 1 to e do r := !r * b done;
  !r

let choices_of scope =
  let ncols = pow scope.Scope.lattice scope.Scope.n_correct in
  let actions =
    if scope.Scope.byz then
      List.map (fun a -> Some a) (Byz.menu ~n_correct:scope.Scope.n_correct)
    else [ None ]
  in
  let acc = ref [] in
  List.iter
    (fun action ->
      iter_cols ~n:scope.Scope.n_correct ~ncols (fun cols ->
          acc := (action, Array.copy cols) :: !acc))
    actions;
  List.rev !acc

let cex_of_rounds scope ~init ~rounds ~measured =
  {
    Cex.preset = scope.Scope.name;
    n_correct = scope.Scope.n_correct;
    has_byz = scope.Scope.byz;
    params = scope.Scope.params;
    init;
    rounds;
    property = "agreement";
    bound = Scope.gamma scope;
    measured;
  }

(* Every schedule of [scope] for [depth] rounds from [init], except that
   rounds after the first follow [prefix_choice] is None ? all : just the
   given fixed spine - checker outcome vs continuous replay. *)
let assert_replay_equality scope ~init ~choice_rounds =
  List.iter
    (fun choices ->
      let corrs = ref (Array.copy init) in
      let rounds = ref [] in
      List.iteri
        (fun round choice ->
          let rc, (o : Step.outcome) =
            Explorer.apply_concrete scope ~round ~corrs:!corrs choice
          in
          Array.iter
            (fun c -> check_true "round completed" c)
            o.Step.completed;
          corrs := o.Step.corrs;
          rounds := rc :: !rounds)
        choices;
      let measured = State.spread !corrs in
      let cex =
        cex_of_rounds scope ~init ~rounds:(List.rev !rounds) ~measured
      in
      let r = Replay.run cex in
      if not (Float.equal r.Replay.skew measured) then
        Alcotest.failf "replay skew %h <> checker %h (%s)" r.Replay.skew
          measured
          (String.concat ";"
             (List.map
                (fun (a, _) ->
                  match a with
                  | Some a -> Byz.action_name a
                  | None -> "none")
                choices));
      (match Replay.diff_provenance cex r.Replay.delay_log with
      | [] -> ()
      | m :: _ ->
        Alcotest.failf "provenance diff at %h: %d->%d expected %h got %h"
          m.Replay.at m.Replay.src m.Replay.dst m.Replay.expected
          m.Replay.actual);
      Array.iteri
        (fun pid c ->
          check_exact (Printf.sprintf "final corr pid %d" pid) !corrs.(pid) c)
        r.Replay.final_corrs)
    choice_rounds

let step_tests =
  [
    t "nominal round completes and converges" (fun () ->
        let scope = Scope.preset_exn "agreement-n3f1" in
        let p = scope.Scope.params in
        let init = [| 0.; p.Params.beta /. 2.; p.Params.beta |] in
        let sends =
          Byz.agenda ~spread:scope.Scope.spread
            ~t_r:(Step.round_start scope 0) ~rank_pids:[| 0; 1; 2 |]
            Byz.Nominal
        in
        let o =
          Step.run_round ~scope ~round:0 ~corrs:init ~byz_sends:sends
            ~delay:(fun ~src:_ ~dst:_ -> p.Params.delta)
        in
        Array.iter (fun c -> check_true "completed" c) o.Step.completed;
        check_true "spread shrank"
          (State.spread o.Step.corrs < State.spread init);
        check_true "no property violation"
          (Props.check_outcome scope o = []));
    t "omission round still completes" (fun () ->
        let scope = Scope.preset_exn "agreement-n3f1" in
        let p = scope.Scope.params in
        let init = [| 0.; 0.; p.Params.beta |] in
        let o =
          Step.run_round ~scope ~round:0 ~corrs:init ~byz_sends:[]
            ~delay:(fun ~src:_ ~dst:_ -> p.Params.delta)
        in
        Array.iter (fun c -> check_true "completed" c) o.Step.completed;
        check_true "bounded adj"
          (Array.for_all
             (fun a -> Float.abs a <= Params.adjustment_bound p)
             o.Step.adjs));
  ]

let equality_tests =
  [
    t "replay equals checker on every 1-round schedule (3 correct + byz)"
      (fun () ->
        let scope =
          { (Scope.preset_exn "agreement-n3f1") with Scope.depth = 1 }
        in
        let p = scope.Scope.params in
        let init = [| 0.; p.Params.beta /. 4.; p.Params.beta |] in
        assert_replay_equality scope ~init
          ~choice_rounds:(List.map (fun c -> [ c ]) (choices_of scope)));
    t "replay equals checker on every 1-round schedule (2 correct + byz)"
      (fun () ->
        let scope =
          { (Scope.preset_exn "divergence-n2f1") with Scope.depth = 1 }
        in
        let p = scope.Scope.params in
        let init = [| 0.; p.Params.beta |] in
        assert_replay_equality scope ~init
          ~choice_rounds:(List.map (fun c -> [ c ]) (choices_of scope)));
    t "replay equals checker across 2 chained rounds" (fun () ->
        (* Fix an adversarial first round, enumerate every second round:
           exercises the round boundary (stale arrival entries, re-armed
           timers) that the mini-simulation abstracts away.  Uses the
           in-theorem n >= 3f+1 scope: the abstraction's precondition is
           that round-boundary spread stays within beta (Lemma 5's wait
           window), which the n = 3f divergence scope deliberately breaks -
           there the explorer stops at the first violating depth instead of
           chaining. *)
        let scope =
          { (Scope.preset_exn "agreement-n3f1") with Scope.depth = 2 }
        in
        let p = scope.Scope.params in
        let init = [| 0.; p.Params.beta /. 2.; p.Params.beta |] in
        let all = choices_of scope in
        let spines =
          [
            (Some Byz.Omit, [| 1; 6; 3 |]);
            (Some (Byz.Two_faced_inv 1), [| 7; 0; 5 |]);
          ]
        in
        List.iter
          (fun spine ->
            assert_replay_equality scope ~init
              ~choice_rounds:(List.map (fun c -> [ spine; c ]) all))
          spines);
  ]

let explorer_tests =
  [
    t "agreement-n3f1 depth 1: exhaustive, no violation" (fun () ->
        let scope =
          { (Scope.preset_exn "agreement-n3f1") with Scope.depth = 1 }
        in
        let r = Explorer.run ~jobs:2 scope in
        check_true "no violations" (r.Explorer.violations = []);
        check_true "not truncated" (not r.Explorer.stats.Explorer.truncated);
        check_true "visited states" (r.Explorer.stats.Explorer.states > 0);
        check_true "dedup did work" (r.Explorer.stats.Explorer.deduped > 0);
        check_true "ran schedules"
          (r.Explorer.stats.Explorer.transitions
          > r.Explorer.stats.Explorer.sims));
    t "weakened gamma yields a counterexample that replays exactly"
      (fun () ->
        let scope =
          {
            (Scope.preset_exn "agreement-n3f1") with
            Scope.depth = 1;
            gamma_factor = 0.5;
          }
        in
        let r = Explorer.run ~jobs:2 scope in
        (match r.Explorer.violations with
        | [] -> Alcotest.fail "expected a violation at gamma/2"
        | v :: _ ->
          let cex = v.Explorer.cex in
          check_true "bound is the weakened gamma"
            (Float.equal cex.Cex.bound (Scope.gamma scope));
          check_true "measured exceeds bound"
            (cex.Cex.measured > cex.Cex.bound);
          let rep = Replay.run cex in
          check_exact "replayed skew" cex.Cex.measured rep.Replay.skew;
          check_true "provenance matches"
            (Replay.diff_provenance cex rep.Replay.delay_log = []);
          (* Serialization round-trip preserves replay behaviour. *)
          (match Cex.of_sexp_string (Cex.to_sexp_string cex) with
          | Error e -> Alcotest.failf "round-trip: %s" e
          | Ok cex' ->
            let rep' = Replay.run cex' in
            check_exact "round-tripped replay" rep.Replay.skew
              rep'.Replay.skew)));
    t "divergence-n2f1 (n = 3f) breaks gamma" (fun () ->
        let r = Explorer.run ~jobs:2 (Scope.preset_exn "divergence-n2f1") in
        match
          List.filter
            (fun v ->
              v.Explorer.prop.Props.kind = Props.Agreement)
            r.Explorer.violations
        with
        | [] -> Alcotest.fail "expected agreement violation below 3f+1"
        | v :: _ ->
          let rep = Replay.run v.Explorer.cex in
          check_exact "replayed divergence" v.Explorer.cex.Cex.measured
            rep.Replay.skew);
    t "exploration is deterministic across job counts" (fun () ->
        let scope =
          { (Scope.preset_exn "divergence-n2f1") with Scope.depth = 1 }
        in
        let a = Explorer.run ~jobs:1 scope in
        let b = Explorer.run ~jobs:4 scope in
        check_int "states" a.Explorer.stats.Explorer.states
          b.Explorer.stats.Explorer.states;
        check_int "transitions" a.Explorer.stats.Explorer.transitions
          b.Explorer.stats.Explorer.transitions;
        check_int "violations"
          (List.length a.Explorer.violations)
          (List.length b.Explorer.violations);
        match (a.Explorer.violations, b.Explorer.violations) with
        | va :: _, vb :: _ ->
          check_bool "same first cex"
            (Cex.to_sexp_string va.Explorer.cex
            = Cex.to_sexp_string vb.Explorer.cex)
            true
        | _ -> ());
    t "validity-n3f1 depth 1: envelope holds" (fun () ->
        let scope =
          { (Scope.preset_exn "validity-n3f1") with Scope.depth = 1 }
        in
        let r = Explorer.run ~jobs:2 scope in
        check_true "no violations" (r.Explorer.violations = []);
        check_true "not truncated" (not r.Explorer.stats.Explorer.truncated));
    t "reintegration-n3: every delay path rejoins within gamma" (fun () ->
        let r =
          Explorer.run_reintegration ~jobs:2
            (Scope.preset_exn "reintegration-n3")
        in
        check_true "paths explored" (r.Explorer.paths > 0);
        check_int "all joined" r.Explorer.paths r.Explorer.joined;
        check_int "all within gamma" r.Explorer.paths r.Explorer.within_gamma;
        check_true "no failures" (r.Explorer.failures = []));
    t "reintegration round leaves its rejoiner state unchanged" (fun () ->
        (* The explorer expands every delay column from one rejoiner state;
           a joined rejoiner's ARR is written in place, so each round must
           run on a private copy for the columns to stay independent. *)
        let module Reint = Csync_core.Reintegration in
        let module Maint = Csync_core.Maintenance in
        let scope = Scope.preset_exn "reintegration-n3" in
        let values = Scope.delay_values scope in
        let corrs0 = List.hd (Scope.init_corrs scope) in
        let round r ~corrs ~rejoiner v =
          Step.run_reintegration_round ~scope ~round:r ~corrs ~rejoiner
            ~delay_to_rejoiner:(fun ~src:_ -> v)
        in
        let rec join r corrs rejoiner =
          if r > 8 then Alcotest.fail "rejoiner never joined"
          else if Reint.mode rejoiner = Reint.Joined then (r, corrs, rejoiner)
          else
            let o = round r ~corrs ~rejoiner values.(0) in
            join (r + 1) o.Step.m_corrs o.Step.rejoiner
        in
        let r, corrs, joined =
          join 0 corrs0
            (Step.fresh_rejoiner ~scope ~garbage:(List.hd scope.Scope.garbage))
        in
        let inner s = Option.get (Reint.maintenance_state s) in
        let arr_before = Maint.arr (inner joined) in
        let run v = round r ~corrs ~rejoiner:joined v in
        let first = run values.(0) in
        ignore (run values.(Array.length values - 1));
        let again = run values.(0) in
        check_true "rejoiner ARR untouched"
          (Array.for_all2 Float.equal arr_before (Maint.arr (inner joined)));
        check_exact "r_corr" first.Step.r_corr again.Step.r_corr;
        check_true "ARR after the round"
          (Array.for_all2 Float.equal
             (Maint.arr (inner first.Step.rejoiner))
             (Maint.arr (inner again.Step.rejoiner))));
  ]

let cex_tests =
  [
    t "omission counterexample exports to a chaos plan" (fun () ->
        let scope = Scope.preset_exn "agreement-n3f1" in
        let p = scope.Scope.params in
        let n_c = scope.Scope.n_correct in
        let d = Array.make_matrix n_c n_c p.Params.delta in
        let rc =
          { Cex.action = Some Byz.Omit; sends = []; delays = d }
        in
        let cex =
          cex_of_rounds scope
            ~init:[| 0.; 0.; p.Params.beta |]
            ~rounds:[ rc ] ~measured:0.
        in
        (match Cex.to_chaos_plan cex with
        | Error e -> Alcotest.failf "expected plan, got: %s" e
        | Ok plan ->
          Plan.validate ~n:(Scope.n_total scope) plan;
          check_int "one drop per nonfaulty receiver" n_c
            (List.length plan));
        let timed =
          {
            cex with
            Cex.rounds =
              [
                {
                  Cex.action = Some Byz.Late_all;
                  sends =
                    Byz.agenda ~spread:scope.Scope.spread
                      ~t_r:(Step.round_start scope 0)
                      ~rank_pids:[| 0; 1; 2 |] Byz.Late_all;
                  delays = d;
                };
              ];
          }
        in
        match Cex.to_chaos_plan timed with
        | Ok _ -> Alcotest.fail "timing action must not export"
        | Error e -> check_true "mentions the action" (contains e "late"));
    t "cex parse rejects garbage" (fun () ->
        (match Cex.of_sexp_string "(not a cex" with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error _ -> ());
        match Cex.of_sexp_string "(cex (version 99))" with
        | Ok _ -> Alcotest.fail "expected version error"
        | Error _ -> ());
    t "replay keeps the caller's monitor, minting nothing on it" (fun () ->
        let scope =
          { (Scope.preset_exn "agreement-n3f1") with Scope.depth = 1 }
        in
        let p = scope.Scope.params in
        let init = [| 0.; p.Params.beta /. 2.; p.Params.beta |] in
        let rc, (o : Step.outcome) =
          Explorer.apply_concrete scope ~round:0 ~corrs:init
            (List.hd (choices_of scope))
        in
        let cex =
          cex_of_rounds scope ~init ~rounds:[ rc ]
            ~measured:(State.spread o.Step.corrs)
        in
        let mon = Mon.create () in
        let mint () = Mon.Prov.mint mon ~src:0 ~dst:1 ~sent:0. ~delay:0. in
        let before = mint () in
        Mon.install mon;
        let r =
          Fun.protect ~finally:Mon.clear_installed (fun () ->
              let r = Replay.run cex in
              check_true "still installed" (Mon.installed () == mon);
              r)
        in
        check_true "the replay logged its own sends" (r.Replay.delay_log <> []);
        check_int "no mints on the caller's monitor" (before + 1) (mint ());
        check_int "no checks on the caller's monitor" 0
          (Mon.checks_performed mon));
  ]

let suite = step_tests @ equality_tests @ explorer_tests @ cex_tests
