(* Command-line interface to the Welch-Lynch clock-synchronization
   reproduction: list and run the paper's experiments, inspect parameter
   sets, and run ad-hoc simulations. *)

open Cmdliner

let quick_arg =
  let doc = "Trim sweeps and horizons (seconds instead of minutes of CPU)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let jobs_arg =
  let doc =
    "Worker count for experiment cells (0 = auto: \\$(b,CSYNC_JOBS) or the \
     runtime's recommended domain count).  Output is identical for every \
     value; on OCaml 4 the executor is sequential regardless."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let jobs_opt jobs = if jobs > 0 then Some jobs else None

(* A whole file's contents ([chaos --plan], [check --replay]). *)
let read_file file =
  try
    let ic = open_in_bin file in
    Ok
      (Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error e

(* One line of per-node stream accounting ([collect], [fleet]). *)
let pp_node_stats (s : Csync_obs.Collect.node_stats) =
  Format.printf
    "p%-4d frames %-6d records %-7d gaps %-4d lost %-4d resets %-3d errors \
     %-3d@."
    s.Csync_obs.Collect.src s.frames s.records s.gaps s.lost s.resets s.errors

(* Online theorem monitors (csync run/chaos/trace --monitor): evaluate the
   paper's bounds while the run executes instead of post hoc.  The monitor
   is installed ambiently, like the telemetry registry, and captured by
   the simulator components at creation time. *)
let monitor_arg =
  let doc =
    "Evaluate the paper's bounds online while the run executes (agreement \
     gamma, the validity envelope, per-round |ADJ|, error halving) and \
     print a per-monitor summary; an adjustment violation names the exact \
     messages (and chaos faults) behind it.  Monitors only observe: output \
     tables are byte-identical with or without this flag."
  in
  Arg.(value & flag & info [ "monitor" ] ~doc)

let tighten_arg =
  let doc =
    "Multiply every monitored bound by $(docv) (< 1 tightens the bounds \
     beyond the theorems - the standard way to force a violation and \
     exercise provenance extraction).  Implies $(b,--monitor)."
  in
  Arg.(value & opt float 1.0 & info [ "tighten" ] ~docv:"FACTOR" ~doc)

let with_monitor ~monitor ~tighten f =
  if monitor || tighten <> 1.0 then begin
    let mon = Csync_obs.Monitor.create ~tighten () in
    Csync_obs.Monitor.install mon;
    Fun.protect
      ~finally:Csync_obs.Monitor.clear_installed
      (fun () -> f (Some mon))
  end
  else f None

let pp_monitor_summary mon =
  Format.printf "@.== Monitors ==@.%a" Csync_obs.Monitor.pp_summary mon

(* Resolve experiment ids (empty = all), preserving the requested order. *)
let resolve_ids ids =
  match ids with
  | [] -> Ok Csync_harness.Registry.all
  | ids ->
    List.fold_left
      (fun acc id ->
        match (acc, Csync_harness.Registry.find id) with
        | Error e, _ -> Error e
        | Ok l, Some e -> Ok (l @ [ e ])
        | Ok _, None -> Error (Printf.sprintf "unknown experiment %S" id))
      (Ok []) ids

(* csync list *)
let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-4s %-60s [%s]@." e.Csync_harness.Experiment.id
          e.Csync_harness.Experiment.title e.Csync_harness.Experiment.paper_ref)
      Csync_harness.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper experiments.")
    Term.(const run $ const ())

(* csync run [IDS...] *)
let run_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run quick jobs monitor tighten ids =
    match resolve_ids ids with
    | Error msg -> `Error (false, msg)
    | Ok experiments ->
      with_monitor ~monitor ~tighten @@ fun mon ->
      Csync_harness.Registry.render_list ?jobs:(jobs_opt jobs)
        Format.std_formatter ~quick experiments;
      (match mon with
      | None -> `Ok ()
      | Some mon ->
        pp_monitor_summary mon;
        if Csync_obs.Monitor.violations_total mon = 0 then `Ok ()
        else
          `Error
            ( false,
              "monitored bounds violated (expected for experiments that \
               deliberately break the assumptions, e.g. the n <= 3f legs)" ))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run experiments by id (all of them when no id is given).")
    Term.(
      ret (const run $ quick_arg $ jobs_arg $ monitor_arg $ tighten_arg $ ids_arg))

(* csync params *)
let params_cmd =
  let float_opt name ~doc ~default =
    Arg.(value & opt float default & info [ name ] ~doc)
  in
  let run n f rho delta eps big_p =
    match Csync_core.Params.auto ~n ~f ~rho ~delta ~eps ~big_p () with
    | Error errs ->
      List.iter
        (fun e -> Format.eprintf "error: %a@." Csync_core.Params.pp_error e)
        errs;
      `Error (false, "invalid parameter combination")
    | Ok p ->
      let open Csync_core.Params in
      Format.printf "%a@." pp p;
      Format.printf "derived:@.";
      Format.printf "  beta (chosen minimal)   = %.6g s@." p.beta;
      Format.printf "  gamma (agreement bound) = %.6g s@." (gamma p);
      Format.printf "  adjustment bound        = %.6g s@." (adjustment_bound p);
      Format.printf "  lambda (shortest round) = %.6g s@." (lambda p);
      let a1, a2, a3 = validity p in
      Format.printf "  validity (a1, a2, a3)   = (%.8f, %.8f, %.3g)@." a1 a2 a3;
      Format.printf "  P admissible in         = [%.6g, %.6g]@."
        (p_min ~rho ~delta ~eps ~beta:p.beta)
        (p_max ~rho ~delta ~eps ~beta:p.beta);
      `Ok ()
  in
  let n = Arg.(value & opt int 7 & info [ "n" ] ~doc:"Number of processes.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Fault budget.") in
  Cmd.v
    (Cmd.info "params"
       ~doc:
         "Compute the Section 5.2 parameter calculus for a configuration: \
          minimal beta, gamma, validity coefficients, admissible P range.")
    Term.(
      ret
        (const run $ n $ f
        $ float_opt "rho" ~doc:"Drift bound." ~default:1e-6
        $ float_opt "delta" ~doc:"Median message delay (s)." ~default:1e-3
        $ float_opt "eps" ~doc:"Delay uncertainty (s)." ~default:1e-4
        $ float_opt "P" ~doc:"Round length (s, local time)." ~default:0.5))

(* csync simulate *)
let simulate_cmd =
  let run quick seed n f rounds faults trace =
    let module Mon = Csync_obs.Monitor in
    let params = Csync_harness.Defaults.base ~n ~f () in
    let scenario =
      { (Csync_harness.Scenario.default ~seed params) with
        Csync_harness.Scenario.rounds = (if quick then min rounds 10 else rounds) }
    in
    let scenario =
      if faults then Csync_harness.Scenario.with_standard_faults scenario
      else scenario
    in
    (* --trace reads the run's message copies from a check-free monitor's
       provenance ring: one id per send, so the last ids are the last
       sends. *)
    let mon = if trace > 0 then Mon.create ~checks:[] () else Mon.none in
    Mon.install mon;
    let r = Csync_harness.Scenario.run scenario in
    Format.printf "%a@." Csync_core.Params.pp params;
    Format.printf "nonfaulty processes : %s@."
      (String.concat ", " (List.map string_of_int r.Csync_harness.Scenario.nonfaulty));
    Format.printf "max skew            : %.3e s (gamma = %.3e s)@."
      r.Csync_harness.Scenario.max_skew
      (Csync_core.Params.gamma params);
    Format.printf "steady skew         : %.3e s@." r.Csync_harness.Scenario.steady_skew;
    Format.printf "max |ADJ|           : %.3e s (bound = %.3e s)@."
      (Csync_metrics.Stats.maximum r.Csync_harness.Scenario.adjustments)
      (Csync_core.Params.adjustment_bound params);
    Format.printf "validity            : %s@."
      (match r.Csync_harness.Scenario.validity with
       | `Holds -> "holds"
       | `Violated _ -> "VIOLATED");
    Format.printf "messages sent       : %d@." r.Csync_harness.Scenario.messages;
    if trace > 0 then begin
      let copies =
        Mon.Prov.recent mon ~below:r.Csync_harness.Scenario.messages trace
      in
      Format.printf "last %d message copies:@." (List.length copies);
      List.iter
        (fun (e : Mon.Prov.entry) ->
          Format.printf "  [%12.6f] p%d -> p%d delay %.6e s@." e.sent e.src
            e.dst e.delay)
        copies
    end;
    `Ok ()
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let n = Arg.(value & opt int 7 & info [ "n" ] ~doc:"Number of processes.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Fault budget.") in
  let rounds = Arg.(value & opt int 30 & info [ "rounds" ] ~doc:"Rounds to run.") in
  let faults =
    Arg.(value & flag & info [ "faults" ] ~doc:"Enable the standard Byzantine cast.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ]
          ~doc:
            "Print the run's last N message copies after it: send time, \
             sender and recipient, and the delay each copy drew.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one ad-hoc maintenance simulation.")
    Term.(ret (const run $ quick_arg $ seed $ n $ f $ rounds $ faults $ trace))

(* csync chaos *)
let chaos_cmd =
  let run quick seed plans n f rounds plan_file monitor tighten state_corrupt
      =
    let module RC = Csync_harness.Runner_chaos in
    let module Plan = Csync_chaos.Plan in
    let module Injector = Csync_chaos.Injector in
    with_monitor ~monitor ~tighten @@ fun mon ->
    let result =
    match Csync_harness.Defaults.base ~n ~f () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | _ when f < 1 -> `Error (false, "chaos needs a fault budget of f >= 1")
    | params ->
    let good r = RC.ok r && RC.stabilizations_ok ~params r in
    match plan_file with
    | Some file -> begin
      (* One deterministic run of a serialized plan (e.g. a model-checker
         counterexample exported with csync check --cex). *)
      match read_file file with
      | Error e -> `Error (false, e)
      | Ok contents ->
      match Plan.of_sexp_string contents with
      | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
      | Ok plan ->
        (match Plan.validate ~n plan with
        | exception Invalid_argument e ->
          `Error (false, Printf.sprintf "%s: invalid plan: %s" file e)
        | () ->
          let rounds = max 15 rounds in
          Format.printf "replaying plan %s (%s)@." file (Plan.describe plan);
          let r = RC.run (RC.make ~seed ~rounds ~params plan) in
          Format.printf
            "injected %d faults; clean skew %.3e / gamma %.3e: %s@."
            (Injector.total r.RC.stats) r.RC.max_clean_skew r.RC.gamma
            (if good r then "ok" else "BOUND VIOLATED");
          if good r then `Ok ()
          else `Error (false, "plan violated the agreement bound"))
    end
    | None ->
    let plans = if quick then min plans 5 else plans in
    let seeds = List.init plans (fun i -> seed + i) in
    let rounds = max 15 rounds in
    Format.printf "chaos campaign: %d plans, %a@." plans Csync_core.Params.pp
      params;
    let runs = RC.campaign ~rounds ~corrupt:state_corrupt ~params ~seeds () in
    let failures =
      List.filter
        (fun { RC.seed; plan; result = r } ->
          Format.printf
            "seed %-6d  %-40s  injected %-4d  clean skew %.3e / gamma %.3e  %s@."
            seed (Plan.describe plan)
            (Injector.total r.RC.stats)
            r.RC.max_clean_skew r.RC.gamma
            (if good r then "ok"
             else if not (RC.agreement_ok r) then "AGREEMENT VIOLATED"
             else if not (RC.recoveries_ok r) then "REJOIN FAILED"
             else "STABILIZATION FAILED");
          List.iter
            (fun v ->
              Format.printf "             recovery p%d: %s@." v.RC.pid
                (match v.RC.join_round with
                 | Some r -> Printf.sprintf "rejoined at round %d" r
                 | None -> "never rejoined"))
            r.RC.recoveries;
          List.iter
            (fun s ->
              Format.printf
                "             corruption p%d sev %.2f: %d breach(es), back \
                 in gamma %.1f rounds after the hit@."
                s.RC.corrupted_pid s.RC.severity s.RC.wrapper_breaches
                (s.RC.stabilized_in /. params.Csync_core.Params.big_p))
            r.RC.stabilizations;
          not (good r))
        runs
    in
    if failures = [] then begin
      Format.printf "all %d plans passed.@." plans;
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "%d of %d chaos plans violated the bound"
            (List.length failures) plans )
    in
    (* Monitor verdicts are informational here: chaos victims are real
       maintenance automata pushed outside the paper's assumptions, so
       their bound breaches are the expected, provenance-annotated
       outcome - the campaign's own suspect-aware check decides pass or
       fail. *)
    (match mon with Some mon -> pp_monitor_summary mon | None -> ());
    result
  in
  let seed = Arg.(value & opt int 1000 & info [ "seed" ] ~doc:"First seed.") in
  let plans =
    Arg.(value & opt int 20 & info [ "plans" ] ~doc:"Number of random plans.")
  in
  let n = Arg.(value & opt int 7 & info [ "n" ] ~doc:"Number of processes.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Fault budget.") in
  let rounds =
    Arg.(value & opt int 24 & info [ "rounds" ] ~doc:"Rounds per run (>= 15).")
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Instead of a random campaign, run the single serialized fault \
             plan in $(docv) (s-expression, as written by the plan \
             generator or csync check).")
  in
  let state_corrupt =
    Arg.(
      value & flag
      & info [ "state-corrupt" ]
          ~doc:
            "Force a transient state corruption into every generated plan \
             (and add the fault kind to the random pool): the victim's \
             correction, arrival buffers, and round bookkeeping are \
             overwritten with garbage, and the stabilizing recovery \
             wrapper must detect the breach and reintegrate within the \
             derived round bound.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a campaign of randomized fault plans (crashes, partitions, \
          lossy links, clock disturbances, transient state corruption) and \
          check the suspect-aware agreement bound plus reintegration of \
          repaired crashers and self-stabilization of corrupted state.")
    Term.(
      ret
        (const run $ quick_arg $ seed $ plans $ n $ f $ rounds $ plan_file
       $ monitor_arg $ tighten_arg $ state_corrupt))

(* csync check *)
let check_cmd =
  let module Scope = Csync_check.Scope in
  let module Explorer = Csync_check.Explorer in
  let module Cex = Csync_check.Cex in
  let module Replay = Csync_check.Replay in
  let write_file file s =
    let oc = open_out file in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  in
  let replay_file file =
    match read_file file with
    | Error e -> `Error (false, e)
    | Ok contents ->
    match Cex.of_sexp_string contents with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
    | Ok cex ->
      Format.printf "%a@." Cex.pp cex;
      let r = Replay.run cex in
      Array.iteri
        (fun i s -> Format.printf "round %d replayed spread: %.6g s@." i s)
        r.Replay.round_spreads;
      let agrees = Float.equal r.Replay.skew cex.Cex.measured in
      Format.printf "replayed skew %.6g s; checker reported %.6g s: %s@."
        r.Replay.skew cex.Cex.measured
        (if agrees then "bit-exact match" else "MISMATCH");
      (match Replay.diff_provenance cex r.Replay.delay_log with
      | [] -> Format.printf "delay provenance: all choices followed@."
      | ms ->
        Format.printf "delay provenance: %d deviations (first at t=%.6g)@."
          (List.length ms)
          (match ms with m :: _ -> m.Replay.at | [] -> 0.));
      if agrees then `Ok ()
      else `Error (false, "replay does not reproduce the checker's skew")
  in
  let explore preset_name depth lattice weaken max_states no_symmetry
      no_dedup jobs cex_file =
    match Scope.preset preset_name with
    | Error e -> `Error (false, e)
    | Ok scope ->
      let scope =
        {
          scope with
          Scope.depth = (if depth > 0 then depth else scope.Scope.depth);
          lattice = (if lattice > 0 then lattice else scope.Scope.lattice);
          gamma_factor = weaken *. scope.Scope.gamma_factor;
          max_states =
            (if max_states > 0 then max_states else scope.Scope.max_states);
          symmetry = scope.Scope.symmetry && not no_symmetry;
          dedup = scope.Scope.dedup && not no_dedup;
        }
      in
      Format.printf "%a@." Scope.pp scope;
      let t_start = Csync_obs.Registry.now_ns () in
      let elapsed_s () =
        float_of_int (Csync_obs.Registry.now_ns () - t_start) *. 1e-9
      in
      (match scope.Scope.mode with
      | Scope.Reintegrate ->
        let r = Explorer.run_reintegration ?jobs:(jobs_opt jobs) scope in
        let dt = elapsed_s () in
        Format.printf
          "explored %d delay paths (%d mini-simulations) in %.2f s (%.0f \
           sims/s)@."
          r.Explorer.paths r.Explorer.r_sims dt
          (float_of_int r.Explorer.r_sims /. Float.max dt 1e-9);
        Format.printf "joined: %d/%d; within gamma: %d/%d@."
          r.Explorer.joined r.Explorer.paths r.Explorer.within_gamma
          r.Explorer.paths;
        if r.Explorer.failures = [] then begin
          Format.printf "reintegration goal holds on every path.@.";
          `Ok ()
        end
        else begin
          List.iter (Format.printf "  %s@.") r.Explorer.failures;
          Format.printf "worst final gap: %.6g s@." r.Explorer.worst_gap;
          `Error (false, "reintegration goal failed")
        end
      | Scope.Maintain ->
        let r = Explorer.run ?jobs:(jobs_opt jobs) scope in
        let dt = elapsed_s () in
        let s = r.Explorer.stats in
        Format.printf
          "states %d (deduped %d), schedules %d, mini-simulations %d in \
           %.2f s@."
          s.Explorer.states s.Explorer.deduped s.Explorer.transitions
          s.Explorer.sims dt;
        Format.printf "throughput: %.0f states/s, %.0f schedules/s@."
          (float_of_int s.Explorer.states /. Float.max dt 1e-9)
          (float_of_int s.Explorer.transitions /. Float.max dt 1e-9);
        Format.printf "frontier per depth: %s@."
          (String.concat " "
             (List.map string_of_int s.Explorer.frontier));
        if s.Explorer.truncated then
          Format.printf
            "WARNING: frontier budget (%d states) exceeded - exploration \
             was TRUNCATED and is NOT exhaustive.@."
            scope.Scope.max_states;
        (match r.Explorer.violations with
        | [] ->
          Format.printf "no property violations%s.@."
            (if s.Explorer.truncated then " (within the truncated frontier)"
             else "; the scope is exhaustively verified");
          `Ok ()
        | v :: _ as vs ->
          Format.printf "%d violation%s found; first:@." (List.length vs)
            (if List.length vs = 1 then "" else "s");
          Format.printf "  at depth %d: %a@." v.Explorer.depth
            Csync_check.Props.pp_violation v.Explorer.prop;
          Format.printf "%a@." Cex.pp v.Explorer.cex;
          (match cex_file with
          | Some file ->
            write_file file (Cex.to_sexp_string v.Explorer.cex);
            Format.printf "counterexample written to %s@." file;
            (match Cex.to_chaos_plan v.Explorer.cex with
            | Ok _ ->
              Format.printf
                "(timing-free: also replayable via csync chaos --plan)@."
            | Error _ -> ())
          | None ->
            Format.printf "%s@." (Cex.to_sexp_string v.Explorer.cex));
          `Error (false, "property violation found")))
  in
  let run preset list_presets depth lattice weaken max_states no_symmetry
      no_dedup jobs cex_file replay =
    if list_presets then begin
      List.iter
        (fun (name, descr, _) -> Format.printf "%-18s %s@." name descr)
        Scope.presets;
      `Ok ()
    end
    else
      match replay with
      | Some file -> replay_file file
      | None ->
        explore preset depth lattice weaken max_states no_symmetry no_dedup
          jobs cex_file
  in
  let preset =
    Arg.(
      value & opt string "agreement-n3f1"
      & info [ "preset"; "p" ] ~docv:"NAME"
          ~doc:
            "Scope to explore (named by nonfaulty count; see --list). \
             Presets mirror the paper's theorems: agreement-* verify \
             Theorem 16's gamma at n >= 3f+1, divergence-n2f1 exhibits \
             the n = 3f breakdown, validity-* check the Theorem 19 \
             envelope, reintegration-* the Section 9 rejoin goal.")
  in
  let list_presets =
    Arg.(value & flag & info [ "list" ] ~doc:"List the available scopes.")
  in
  let depth =
    Arg.(
      value & opt int 0
      & info [ "depth" ] ~docv:"ROUNDS" ~doc:"Override the rounds to explore.")
  in
  let lattice =
    Arg.(
      value & opt int 0
      & info [ "lattice" ] ~docv:"K"
          ~doc:"Override delay choices per message (1, 2 or 3).")
  in
  let weaken =
    Arg.(
      value & opt float 1.0
      & info [ "weaken-gamma" ] ~docv:"FACTOR"
          ~doc:
            "Multiply the agreement bound by $(docv) (< 1 tightens it \
             beyond the theorem, forcing a counterexample - the standard \
             way to exercise extraction and replay).")
  in
  let max_states =
    Arg.(
      value & opt int 0
      & info [ "max-states" ] ~docv:"N" ~doc:"Override the frontier budget.")
  in
  let no_symmetry =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:"Disable the process-permutation quotient (for comparison).")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ] ~doc:"Disable visited-state deduplication.")
  in
  let cex_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cex" ] ~docv:"FILE"
          ~doc:
            "Write the first counterexample to $(docv) (s-expression; \
             replay with --replay).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute a counterexample file in the full simulator \
             instead of exploring, and verify it reproduces the reported \
             skew bit-for-bit.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check a small scope of the protocol: every \
          Byzantine strategy from a menu crossed with every per-message \
          delay choice, against the paper's agreement / adjustment / \
          validity bounds.  Violations are exported as replayable \
          counterexamples.")
    Term.(
      ret
        (const run $ preset $ list_presets $ depth $ lattice $ weaken
       $ max_states $ no_symmetry $ no_dedup $ jobs_arg $ cex_file $ replay))

(* csync export *)
let export_cmd =
  let dir_arg =
    Arg.(value & opt string "results" & info [ "out"; "o" ] ~doc:"Output directory.")
  in
  let ids_arg =
    let doc = "Experiment ids to export (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '_')
      name
  in
  let run quick jobs dir ids =
    match resolve_ids ids with
    | Error msg -> `Error (false, msg)
    | Ok experiments ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (e, tables) ->
          List.iteri
            (fun i tbl ->
              let file =
                Printf.sprintf "%s/%s_%d_%s.csv" dir
                  e.Csync_harness.Experiment.id i
                  (sanitize (Csync_metrics.Table.title tbl))
              in
              let oc = open_out file in
              output_string oc (Csync_metrics.Table.to_csv tbl);
              close_out oc;
              Format.printf "wrote %s@." file)
            tables)
        (Csync_harness.Registry.run_list ?jobs:(jobs_opt jobs) ~quick
           experiments);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run experiments and write each table as CSV into a directory.")
    Term.(ret (const run $ quick_arg $ jobs_arg $ dir_arg $ ids_arg))

(* csync bench *)
let bench_cmd =
  let json_arg =
    let doc =
      "Also rerun the suite at one worker (speedup + byte-identity check) \
       and write the report as JSON to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let suite_arg =
    let doc = "Print the rendered experiment tables too (not just timings)." in
    Arg.(value & flag & info [ "tables" ] ~doc)
  in
  let baseline_arg =
    let doc =
      "Compare this run's kernels (and suite wall-clock) against a \
       previously written BENCH JSON report and print per-kernel deltas."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let max_ns_arg =
    let doc =
      "Fail (exit nonzero) if the named kernel's measured time exceeds the \
       bound, e.g. $(b,engine/schedule-pop-1k=404794).  Repeatable; the CI \
       perf gate."
    in
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "max-ns" ] ~docv:"KERNEL=NS" ~doc)
  in
  let check_max_ns report bounds =
    let failures =
      List.filter_map
        (fun (name, bound) ->
          match
            List.find_opt
              (fun k -> String.equal k.Bench_report.name name)
              report.Bench_report.kernels
          with
          | None -> Some (Printf.sprintf "kernel %s not measured" name)
          | Some k when not (Float.is_finite k.Bench_report.ns_per_op) ->
            Some (Printf.sprintf "kernel %s has no finite estimate" name)
          | Some k when k.Bench_report.ns_per_op > bound ->
            Some
              (Printf.sprintf "kernel %s: %.1f ns/op exceeds bound %.1f" name
                 k.Bench_report.ns_per_op bound)
          | Some k ->
            Format.printf "max-ns ok: %s %.1f <= %.1f ns/op@." name
              k.Bench_report.ns_per_op bound;
            None)
        bounds
    in
    match failures with
    | [] -> `Ok ()
    | fs -> `Error (false, String.concat "; " fs)
  in
  let run quick jobs json tables baseline max_ns =
    (* Load the baseline before the (slow) run so a bad path fails fast. *)
    match Option.map Bench_report.load_baseline baseline with
    | Some (Error e) -> `Error (false, e)
    | (None | Some (Ok _)) as loaded ->
      let report, suite_output =
        Bench_report.run ~jobs ~quick ~compare_jobs1:(json <> None) ()
      in
      if tables then print_string suite_output;
      Format.printf "######## Micro-benchmarks (bechamel, ns per run)@.";
      Bench_report.pp_kernels Format.std_formatter report.Bench_report.kernels;
      Bench_report.pp_summary Format.std_formatter report;
      (match (loaded, baseline) with
      | Some (Ok b), Some file ->
        Bench_report.pp_baseline_deltas Format.std_formatter ~file report b
      | _ -> ());
      (match json with
      | None -> ()
      | Some file ->
        Bench_report.write_json report file;
        Format.printf "wrote %s@." file);
      check_max_ns report max_ns
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Time the experiment suite (optionally vs one worker) and \
          micro-benchmark the kernels; optionally emit a BENCH JSON report \
          or diff against a previous one.")
    Term.(
      ret
        (const run $ quick_arg $ jobs_arg $ json_arg $ suite_arg $ baseline_arg
       $ max_ns_arg))

(* csync trace *)
let trace_cmd =
  let module Obs = Csync_obs.Registry in
  let module Json = Csync_obs.Json in
  let params_json (p : Csync_core.Params.t) =
    Json.Obj
      [
        ("n", Json.num_of_int p.n);
        ("f", Json.num_of_int p.f);
        ("rho", Json.Num p.rho);
        ("delta", Json.Num p.delta);
        ("eps", Json.Num p.eps);
        ("beta", Json.Num p.beta);
        ("big_p", Json.Num p.big_p);
        ("t0", Json.Num p.t0);
        ("gamma", Json.Num (Csync_core.Params.gamma p));
        ("adjustment_bound", Json.Num (Csync_core.Params.adjustment_bound p));
      ]
  in
  let write_trace ~out ~canonical ~target ~seed ~jobs ~quick ~params ~mon reg =
    let module Record = Csync_obs.Record in
    let manifest =
      Csync_obs.Manifest.make ~target ~seed ~jobs ~quick
        ?params:(Option.map params_json params) ()
    in
    (* Monitor verdicts ride the same capture: one monitor record per
       configured check, so csync report and --diff can render and
       compare them. *)
    let records =
      Record.Manifest manifest
      :: (Obs.records reg @ Csync_obs.Monitor.records mon)
    in
    let records = if canonical then Record.canonical records else records in
    Csync_obs.Btrace.write_file out records;
    Format.printf "wrote %s (%d records)@." out (List.length records)
  in
  let run quick jobs seed monitor tighten out canonical target =
    let jobs_v =
      match jobs_opt jobs with
      | Some j -> j
      | None -> Csync_harness.Pool.default_jobs ()
    in
    with_monitor ~monitor ~tighten @@ fun mon_opt ->
    let reg = Obs.create () in
    Obs.install reg;
    let finish ~params result =
      Obs.clear_installed ();
      (match result with
      | Ok () ->
        write_trace ~out ~canonical ~target ~seed ~jobs:jobs_v ~quick
          ~params
          ~mon:(Option.value mon_opt ~default:Csync_obs.Monitor.none)
          reg;
        Option.iter pp_monitor_summary mon_opt
      | Error _ -> ());
      match result with Ok () -> `Ok () | Error msg -> `Error (false, msg)
    in
    match String.lowercase_ascii target with
    | "chaos" ->
      let module RC = Csync_harness.Runner_chaos in
      let params = Csync_harness.Defaults.base ~n:7 ~f:2 () in
      let { RC.plan; result = r; _ } = RC.single ~params ~seed () in
      Format.printf "chaos seed %d: %s@." seed (Csync_chaos.Plan.describe plan);
      Format.printf "injected %d faults; clean skew %.3e / gamma %.3e: %s@."
        (Csync_chaos.Injector.total r.RC.stats)
        r.RC.max_clean_skew r.RC.gamma
        (if RC.ok r then "ok" else "BOUND VIOLATED");
      finish ~params:(Some params) (Ok ())
    | "check" ->
      let module Scope = Csync_check.Scope in
      let module Explorer = Csync_check.Explorer in
      (match Scope.preset "agreement-n3f1" with
      | Error e -> finish ~params:None (Error e)
      | Ok scope ->
        let scope =
          if quick then { scope with Scope.depth = min scope.Scope.depth 2 }
          else scope
        in
        let r = Explorer.run ?jobs:(jobs_opt jobs) scope in
        let s = r.Explorer.stats in
        Format.printf "states %d (deduped %d), mini-simulations %d@."
          s.Explorer.states s.Explorer.deduped s.Explorer.sims;
        finish ~params:None
          (if r.Explorer.violations = [] then Ok ()
           else Error "property violation found"))
    | _ -> (
      match resolve_ids [ target ] with
      | Error msg -> finish ~params:None (Error msg)
      | Ok experiments ->
        Csync_harness.Registry.render_list ?jobs:(jobs_opt jobs)
          Format.std_formatter ~quick experiments;
        finish ~params:None (Ok ()))
  in
  let seed =
    Arg.(
      value & opt int 1000
      & info [ "seed" ] ~doc:"Seed for the chaos target's generated plan.")
  in
  let out_arg =
    Arg.(
      value & opt string "run.btrace"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Trace output path.  The capture is a csync-btrace/1 file; \
             $(b,csync report --json) renders it as JSON lines.")
  in
  let canonical_arg =
    let doc =
      "Restrict the capture to records that are a pure function of the \
       run's inputs: drop spans, gauges, pool/profile metrics, and \
       volatile manifest fields.  Canonical traces are byte-identical \
       across $(b,--jobs) and across machines."
    in
    Arg.(value & flag & info [ "canonical" ] ~doc)
  in
  let target_arg =
    let doc =
      "What to capture: an experiment id (e.g. $(b,E1)), $(b,chaos) (one \
       generated fault plan), or $(b,check) (one model-checking scope)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a target with telemetry enabled and capture the full trace \
          (manifest, counters, gauges, series, histograms, spans, events) \
          as a binary btrace file.  The run's tables are byte-identical \
          to an untraced run; render the capture with csync report or \
          watch it with csync top.")
    Term.(
      ret
        (const run $ quick_arg $ jobs_arg $ seed $ monitor_arg $ tighten_arg
       $ out_arg $ canonical_arg $ target_arg))

(* csync collect *)
let collect_cmd =
  let run port out duration snapshot_period max_src =
    match
      Csync_runtime.Collector.run ~port ~max_src ~out ~duration
        ~snapshot_period ()
    with
    | exception Unix.Unix_error (e, fn, _) ->
      `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e))
    | stats, rejected ->
      List.iter pp_node_stats stats;
      Format.printf "rejected datagrams: %d@." rejected;
      Format.printf "wrote %s@." out;
      `Ok ()
  in
  let port_arg =
    Arg.(
      value & opt int 17_900
      & info [ "port" ] ~docv:"PORT" ~doc:"UDP port to listen on (localhost).")
  in
  let out_arg =
    Arg.(
      value & opt string "fleet.btrace"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Merged fleet trace output path (binary btrace).")
  in
  let duration_arg =
    Arg.(
      value & opt float 10.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"How long to collect.")
  in
  let snap_arg =
    Arg.(
      value & opt float 1.0
      & info [ "snapshot-period" ] ~docv:"SECONDS"
          ~doc:
            "Rewrite the merged trace every $(docv) seconds (atomically, so \
             csync top --fleet can watch it grow).")
  in
  let max_src_arg =
    Arg.(
      value & opt int 4095
      & info [ "max-src" ] ~docv:"N" ~doc:"Largest accepted node id.")
  in
  Cmd.v
    (Cmd.info "collect"
       ~doc:
         "Run the fleet telemetry collector: accept csync-btrace/1 streams \
          from any number of live nodes concurrently over UDP, tolerate \
          per-node loss and reconnects, and keep rewriting the canonical \
          merged fleet trace.  Render the result with csync report --fleet \
          or watch it with csync top --fleet.")
    Term.(
      ret
        (const run $ port_arg $ out_arg $ duration_arg $ snap_arg $ max_src_arg))

(* csync fleet *)
let fleet_cmd =
  let module Live = Csync_runtime.Live in
  let module Collector = Csync_runtime.Collector in
  let module Collect = Csync_obs.Collect in
  let run nodes f duration out base_port period restart seed =
    match
      Csync_core.Params.auto ~n:nodes ~f ~rho:1e-4 ~delta:0.025 ~eps:0.0249
        ~big_p:0.45 ()
    with
    | Error errs ->
      List.iter
        (fun e -> Format.eprintf "error: %a@." Csync_core.Params.pp_error e)
        errs;
      `Error (false, "invalid fleet configuration")
    | Ok params -> (
      let gamma = Csync_core.Params.gamma params in
      let collector = Collector.create ~max_src:(nodes - 1) () in
      let cport = Collector.port collector in
      Format.printf "collector on udp port %d; %d nodes, gamma %.3g s@." cport
        nodes gamma;
      let stop = Atomic.make false in
      let collector_thread =
        Thread.create (fun () -> Collector.serve collector ~out ~stop ()) ()
      in
      let live =
        Live.run_maintenance ~base_port ~seed ~telemetry_port:cport
          ~telemetry_period:period ?restart ~params ~duration ()
      in
      (* Straggler datagrams from the final emitter flushes. *)
      Thread.delay 0.3;
      Atomic.set stop true;
      Thread.join collector_thread;
      let stats = Collect.stats (Collector.collect collector) in
      List.iter pp_node_stats stats;
      Format.printf "rejected datagrams: %d@."
        (Collector.rejected collector);
      Collector.close collector;
      Format.printf "wrote %s (%d records)@." out
        (Collect.total_records (Collector.collect collector));
      match Csync_obs.Report.of_file out with
      | Error e -> `Error (false, e)
      | Ok t ->
        let fl = Csync_obs.Report.fleet t in
        let within = fl.Csync_obs.Report.fleet_max <= gamma in
        Format.printf
          "true final skew %.3g s; measured fleet skew %.3g s / gamma %.3g \
           s: %s@."
          live.Live.final_skew fl.Csync_obs.Report.fleet_max gamma
          (if within then "within gamma" else "EXCEEDS gamma");
        let reconnected =
          match restart with
          | None -> true
          | Some (pid, _, _) -> (
            match
              List.find_opt (fun s -> s.Collect.src = pid) stats
            with
            | Some s when s.Collect.resets >= 1 ->
              Format.printf
                "restart p%d: stream reconnected (%d reset%s), reappeared in \
                 the merged trace@."
                pid s.Collect.resets
                (if s.Collect.resets = 1 then "" else "s");
              true
            | _ ->
              Format.printf "restart p%d: stream NEVER RECONNECTED@." pid;
              false)
        in
        if fl.Csync_obs.Report.fleet_pairs = [] then
          `Error (false, "no measured skew pairs (run too short?)")
        else if not within then
          `Error (false, "measured fleet skew exceeds gamma")
        else if not reconnected then
          `Error (false, "restarted node never reconnected")
        else `Ok ())
  in
  let nodes_arg =
    Arg.(value & opt int 5 & info [ "nodes" ] ~doc:"Fleet size (n).")
  in
  let f_arg = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Fault budget.") in
  let duration_arg =
    Arg.(
      value & opt float 9.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Wall-clock run length (rounds are P = 0.45 s of local time).")
  in
  let out_arg =
    Arg.(
      value & opt string "fleet.btrace"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Merged fleet trace path.")
  in
  let base_port_arg =
    Arg.(
      value & opt int 17_700
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"First node UDP port (node i binds PORT + i).")
  in
  let period_arg =
    Arg.(
      value & opt float 0.25
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Telemetry flush period.")
  in
  let restart_arg =
    Arg.(
      value
      & opt (some (t3 ~sep:',' int float float)) None
      & info [ "restart" ] ~docv:"PID,STOP,RESUME"
          ~doc:
            "Crash node $(i,PID) at $(i,STOP) seconds after the epoch and \
             restart it at $(i,RESUME) as a fresh process: it rejoins via \
             Section 9.1 reintegration and its telemetry resumes on a fresh \
             stream, exercising the collector's reconnect path.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Clock-injection seed.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Loopback fleet smoke: launch live UDP nodes with per-node \
          telemetry emitters plus the collector, run for a fixed duration \
          (optionally crashing and restarting one node), write the merged \
          fleet trace, and check measured pairwise skew against gamma.  \
          Exits nonzero if the measurement exceeds the bound or a \
          restarted node never reconnects.")
    Term.(
      ret
        (const run $ nodes_arg $ f_arg $ duration_arg $ out_arg
       $ base_port_arg $ period_arg $ restart_arg $ seed_arg))

(* csync report *)
let report_cmd =
  let module Report = Csync_obs.Report in
  let load read file =
    match read file with
    | exception Sys_error e -> Error e
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | Ok t -> Ok t
  in
  let print_json () r =
    print_string (Csync_obs.Json.to_string (Csync_obs.Record.to_json r));
    print_char '\n'
  in
  let run label diff fleet json files =
    match (diff, files) with
    | _ when Bool.to_int diff + Bool.to_int fleet + Bool.to_int json > 1 ->
      `Error (true, "--diff, --fleet and --json are exclusive")
    | true, [ a; b ] -> (
      match (load Report.of_file a, load Report.of_file b) with
      | Error e, _ | _, Error e -> `Error (false, e)
      | Ok ta, Ok tb ->
        Csync_obs.Diff.render Format.std_formatter ~name_a:a ~name_b:b ta tb;
        `Ok ())
    | true, _ -> `Error (true, "--diff aligns exactly two FILEs")
    | false, [ file ] when json -> (
      match load (Csync_obs.Btrace.fold_file ~init:() ~f:print_json) file with
      | Error e -> `Error (false, e)
      | Ok () -> `Ok ())
    | false, [ file ] -> (
      match load Report.of_file file with
      | Error e -> `Error (false, e)
      | Ok t ->
        if fleet then Report.render_fleet Format.std_formatter t
        else Report.render ?focus:label Format.std_formatter t;
        `Ok ())
    | false, _ -> `Error (true, "report renders exactly one FILE")
  in
  let label_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"CELL"
          ~doc:
            "Cell label to focus the per-cell sections on (see the report's \
             Cells section for the choices).")
  in
  let diff_arg =
    let doc =
      "Align two traces by manifest and metric name and render what \
       changed between the runs: manifest drift, monitor-verdict changes, \
       per-round skew/ADJ deltas, histogram shifts, changed counters.  \
       Identical runs render as an explicit \"no differences\" verdict."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let fleet_arg =
    let doc =
      "Render the FILE as a merged fleet trace (from csync collect): \
       measured pairwise skew from the exchanged-timestamp samples \
       against the gamma and per-hop kappa envelopes, with a \
       measured-vs-predicted table, violation lines, and per-node \
       stream accounting."
    in
    Arg.(value & flag & info [ "fleet" ] ~doc)
  in
  let json_arg =
    let doc =
      "Print the FILE's records as JSON, one object per line, instead of \
       the report - for grep and golden diffs."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "A csync-btrace/1 trace, as written by csync trace or csync \
             collect (two traces with $(b,--diff)).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a captured trace (skew timelines, ADJ-per-round tables, \
          message-delay histograms, pool utilization, chaos ledger, monitor \
          verdicts, exploration statistics) - or, with --diff, the \
          differences between two traces.")
    Term.(
      ret (const run $ label_arg $ diff_arg $ fleet_arg $ json_arg $ files_arg))

(* csync topo *)
let topo_cmd =
  let module Graph = Csync_topo.Graph in
  let module Gradient = Csync_topo.Gradient in
  let module Soa = Csync_process.Soa in
  let family_arg =
    let family_conv =
      Arg.enum
        [ ("ring", `Ring); ("grid", `Grid); ("torus", `Torus);
          ("expander", `Expander); ("hier", `Hier); ("complete", `Complete) ]
    in
    let doc =
      "Topology family: $(b,ring) (directed predecessor circulant), \
       $(b,grid)/$(b,torus) (2-d lattice), $(b,expander) (seeded random \
       circulant), $(b,hier) (Welch-Lynch cliques on a leader tree), \
       $(b,complete) (full mesh)."
    in
    Arg.(value & opt family_conv `Ring & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Number of processes.")
  in
  let degree_arg =
    Arg.(
      value & opt int 8
      & info [ "degree" ] ~doc:"Ring/expander degree (ignored elsewhere).")
  in
  let cluster_arg =
    Arg.(
      value & opt int 16
      & info [ "cluster" ] ~doc:"Clique size (hier only).")
  in
  let branching_arg =
    Arg.(
      value & opt int 4
      & info [ "branching" ] ~doc:"Leader-tree arity (hier only).")
  in
  let seed_arg =
    Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Expander generator seed.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 0
      & info [ "rounds" ]
          ~doc:
            "Also run $(docv) gradient synchronization rounds over the \
             graph (struct-of-arrays model) and print per-round global and \
             local skew against the per-hop allowance kappa."
          ~docv:"R")
  in
  let gain_arg =
    Arg.(
      value & opt float 1.0
      & info [ "gain" ]
          ~doc:"Neighbor-averaging gain in (0, 1]; 1 = full midpoint jump.")
  in
  let run family n degree cluster branching seed rounds gain =
    let build () =
      match family with
      | `Ring -> Graph.ring ~n ~degree:(max 1 (min degree (n - 1)))
      | `Grid | `Torus ->
        (* Squarest factorization of n. *)
        let rows = ref 1 in
        let s = int_of_float (Float.sqrt (float_of_int n)) in
        for d = 1 to s do
          if n mod d = 0 then rows := d
        done;
        if family = `Grid then Graph.grid ~rows:!rows ~cols:(n / !rows)
        else Graph.torus ~rows:!rows ~cols:(n / !rows)
      | `Expander -> Graph.expander ~n ~degree ~seed
      | `Hier -> Graph.hier_tree ~n ~cluster ~branching
      | `Complete -> Graph.complete ~n
    in
    match build () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | g ->
      Format.printf "%a@." Graph.pp g;
      Format.printf "  edges      = %d (directed)@." (Graph.edges g);
      Format.printf "  in-degree  = %d .. %d@." (Graph.min_in_degree g)
        (Graph.max_in_degree g);
      Format.printf "  symmetric  = %b@." (Graph.is_symmetric g);
      Format.printf "  connected  = %b@." (Graph.is_connected g);
      Format.printf "  diameter   = %s@."
        (let d = Graph.diameter g in
         if d = max_int then "inf" else string_of_int d);
      Format.printf "  tolerated Byzantine faults (weakest neighborhood) = %d@."
        (Graph.tolerated_faults g);
      if rounds <= 0 then `Ok ()
      else begin
        let rho = 1e-5 and delta = 0.01 and eps = 0.001 and period = 10. in
        match
          Soa.create ~graph:g ~f:2 ~seed:3 ~rho ~delta ~eps ~period
            ~dispersion:(2. *. eps) ~mode:(Soa.Gradient_avg gain) ~n ()
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | m ->
          let kappa = Gradient.kappa ~rho ~eps ~period ~gain in
          Format.printf "@.gradient rounds (gain %.2f, kappa %.4g):@." gain
            kappa;
          Format.printf "  %-6s %-12s %-12s %s@." "round" "global" "local"
            "local<=kappa";
          Format.printf "  %-6d %-12.4g %-12.4g -@." 0 (Soa.spread m)
            (Soa.local_skew m);
          for r = 1 to rounds do
            ignore (Csync_harness.Scale.round m);
            let l = Soa.local_skew m in
            Format.printf "  %-6d %-12.4g %-12.4g %s@." r (Soa.spread m) l
              (if l <= kappa then "yes" else "NO")
          done;
          `Ok ()
      end
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Inspect a sparse topology (degrees, diameter, symmetry, fault \
          budget) and optionally run gradient synchronization rounds over \
          it.")
    Term.(
      ret
        (const run $ family_arg $ n_arg $ degree_arg $ cluster_arg
        $ branching_arg $ seed_arg $ rounds_arg $ gain_arg))

(* csync top *)
let top_cmd =
  let run label interval fleet once file =
    match Csync_obs.Top.watch ?focus:label ~interval ~fleet ~once file with
    | Ok () -> `Ok ()
    | Error e -> `Error (false, e)
  in
  let label_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"CELL"
          ~doc:"Cell label to focus the sparkline/phase sections on.")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period (clamped to >= 0.1s).")
  in
  let fleet_arg =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Per-node fleet panel over a merged fleet trace (the file \
             csync collect keeps rewriting): round, measured skew, stream \
             frames/gaps, emitter drops, and last-seen per node.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render a single frame (no ANSI clear, no loop) and exit - \
             the scriptable / CI smoke mode.")
  in
  let file_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Trace to watch (csync-btrace/1), typically the $(b,--out) \
             of a csync trace still running.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a trace: round counter, convergence \
          sparklines, round-phase time bars, monitor verdict lights and \
          fault counters, redrawn in place as the capture grows.  Point \
          it at the --out file of a running csync trace, or replay a \
          finished one.")
    Term.(
      ret (const run $ label_arg $ interval_arg $ fleet_arg $ once_arg $ file_arg))

let main_cmd =
  let doc =
    "Fault-tolerant clock synchronization (Welch & Lynch 1984/1988) - \
     simulator, experiments, and parameter calculus."
  in
  Cmd.group (Cmd.info "csync" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; params_cmd; simulate_cmd; chaos_cmd; check_cmd;
      export_cmd; bench_cmd; trace_cmd; report_cmd; top_cmd; topo_cmd;
      collect_cmd; fleet_cmd ]

let () = exit (Cmd.eval main_cmd)
