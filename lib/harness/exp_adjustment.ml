(* E2 - adjustment size (Theorem 4(a) / Lemma 7; Section 10's "about
   5 eps").

   Same sweep as E1; records every ADJ a nonfaulty process applies and
   checks the largest against the proved bound (1+rho)(beta+eps) + rho
   delta.  With beta chosen minimal (~ 4 eps + 4 rho P), that bound is
   about 5 eps + 4 rho P, matching the paper's estimate. *)

module Table = Csync_metrics.Table
module Stats = Csync_metrics.Stats
module Params = Csync_core.Params
module Bounds = Csync_core.Bounds

(* Each sweep configuration is its own cell, labelled as E1's are, so its
   metrics - the delay histograms with their own [delta - eps, delta + eps]
   window among them - stay apart from the other cells'. *)
let row ((eps, rho, big_p) as config) =
  let params, r = Exp_agreement.run_config config in
  let bound = Params.adjustment_bound params in
  let max_adj = Stats.maximum r.Scenario.adjustments in
  [
    [
      Table.cell_e eps;
      Table.cell_e rho;
      Table.cell_f big_p;
      Table.cell_e max_adj;
      Table.cell_e (Stats.percentile r.Scenario.adjustments 95.);
      Table.cell_e (Stats.mean r.Scenario.adjustments);
      Table.cell_e bound;
      Table.cell_e (Bounds.wl_adjustment_estimate ~eps);
      (if max_adj <= bound then "yes" else "NO");
    ];
  ]

let cells ~quick =
  List.map
    (fun config ->
      Experiment.cell ~label:(Exp_agreement.label config) (fun () -> row config))
    (Exp_agreement.sweep ~quick)

let assemble ~quick:_ rows =
  let table =
    Table.make ~title:"E2: adjustment size per round vs Lemma 7 bound"
      ~columns:
        [ "eps"; "rho"; "P"; "max |ADJ|"; "p95 |ADJ|"; "mean |ADJ|"; "bound";
          "~5eps"; "within bound" ]
      ()
  in
  let table = Table.add_rows table (List.concat rows) in
  [
    Table.note table
      "Lemma 7: |ADJ| <= (1+rho)(beta+eps) + rho delta; with minimal beta \
       this is the paper's ~5 eps estimate (plus the 4 rho P drift term).";
  ]

let experiment =
  Experiment.of_cells ~id:"E2"
    ~title:"Adjustment magnitude per round"
    ~paper_ref:"Theorem 4(a) / Lemma 7; Section 10 (~5 eps)" ~cells ~assemble
