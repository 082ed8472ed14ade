(* E1 - gamma-agreement (Theorem 16).

   Sweeps eps, rho and P; for each configuration runs the maintenance
   algorithm with the standard Byzantine cast, worst-case (extreme) delays
   and drifting clocks, and compares the largest observed skew of nonfaulty
   local times against the closed-form gamma and the paper's rule-of-thumb
   steady state 4 eps + 4 rho P.

   Each sweep configuration is one independent cell, so the sweep fans out
   across pool workers; rows are assembled back in sweep order. *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params

let sweep ~quick =
  let all =
    [
      (1e-4, 1e-6, 0.5);
      (2e-5, 1e-6, 0.5);
      (5e-4, 1e-6, 0.5);
      (1e-4, 0., 0.5);
      (1e-4, 1e-5, 0.5);
      (1e-4, 1e-6, 0.1);
      (1e-4, 1e-6, 2.0);
      (5e-5, 1e-5, 1.0);
    ]
  in
  if quick then [ (1e-4, 1e-6, 0.5); (1e-4, 1e-5, 0.5) ] else all

let run_config (eps, rho, big_p) =
  let params = Defaults.base ~eps ~rho ~big_p () in
  let scenario =
    { (Scenario.default params) with Scenario.delay_kind = Scenario.Extreme_delay }
  in
  (params, Scenario.run (Scenario.with_standard_faults scenario))

let label (eps, rho, big_p) = Printf.sprintf "eps=%g,rho=%g,P=%g" eps rho big_p

let row ((eps, rho, big_p) as config) =
  let params, r = run_config config in
  let gamma = Params.gamma params in
  [
    [
      Table.cell_e eps;
      Table.cell_e rho;
      Table.cell_f big_p;
      Table.cell_e params.Params.beta;
      Table.cell_e gamma;
      Table.cell_e r.Scenario.max_skew;
      Table.cell_e r.Scenario.steady_skew;
      Table.cell_ratio (r.Scenario.max_skew /. gamma);
      Table.cell_e (Params.beta_approx ~rho ~eps ~big_p);
      (if r.Scenario.max_skew <= gamma then "yes" else "NO");
    ];
  ]

let cells ~quick =
  List.map
    (fun config -> Experiment.cell ~label:(label config) (fun () -> row config))
    (sweep ~quick)

let assemble ~quick:_ rows =
  let table =
    Table.make ~title:"E1: agreement - max nonfaulty skew vs gamma (Thm 16)"
      ~columns:
        [ "eps"; "rho"; "P"; "beta"; "gamma"; "max skew"; "steady skew";
          "skew/gamma"; "4eps+4rhoP"; "within bound" ]
      ()
  in
  let table = Table.add_rows table (List.concat rows) in
  [
    Table.note table
      "The paper proves skew <= gamma; measured skew should sit below gamma \
       and scale like the 4eps+4rhoP rule of thumb.";
  ]

let experiment =
  Experiment.of_cells ~id:"E1"
    ~title:"Agreement: skew of nonfaulty local times vs the gamma bound"
    ~paper_ref:"Theorem 16; Section 5.2 rule of thumb beta ~ 4eps+4rhoP"
    ~cells ~assemble
