let all =
  [
    Exp_agreement.experiment;
    Exp_adjustment.experiment;
    Exp_convergence.experiment;
    Exp_validity.experiment;
    Exp_comparison.experiment;
    Exp_averaging_variants.experiment;
    Exp_k_exchange.experiment;
    Exp_resilience.experiment;
    Exp_reintegration.experiment;
    Exp_establishment.experiment;
    Exp_collision.experiment;
    Exp_ablation.experiment;
    Exp_chaos.experiment;
    Exp_stabilization.experiment;
    Exp_topology.experiment;
    Exp_hierarchy.experiment;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.Experiment.id = id) all

(* Flatten every experiment's tasks into one array, run it through the
   pool, and slice the results back per experiment.  Cells carry their own
   seeds and the slices are positional, so the tables are identical for
   any [jobs] - the pool only changes wall-clock time. *)
let run_list ?jobs ~quick experiments =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let per_exp = List.map (fun e -> (e, Experiment.tasks ~quick e)) experiments in
  let flat = Array.of_list (List.concat_map snd per_exp) in
  let run_task i =
    let label, thunk = flat.(i) in
    (* Prefix this cell's metrics with its label so cells don't collide.
       The installed registry is this task's own child (see {!Pool.init}),
       so the label never leaks into another cell or into the caller. *)
    Csync_obs.Registry.set_label (Csync_obs.Registry.installed ()) label;
    thunk ()
  in
  let rows = Pool.init ~jobs (Array.length flat) run_task in
  let next = ref 0 in
  List.map
    (fun (e, tasks) ->
      let k = List.length tasks in
      let slice = List.init k (fun j -> rows.(!next + j)) in
      next := !next + k;
      (e, e.Experiment.assemble ~quick slice))
    per_exp

let render_list ?jobs ppf ~quick experiments =
  List.iter
    (fun (e, tables) -> Experiment.render_tables ppf e tables)
    (run_list ?jobs ~quick experiments)

let render_all ?jobs ppf ~quick = render_list ?jobs ppf ~quick all
