module Table = Csync_metrics.Table

type cell = { label : string; thunk : unit -> string list list }

let cell ~label thunk =
  if String.contains label '/' then
    invalid_arg ("Experiment.cell: '/' in label " ^ label);
  { label; thunk }

type t = {
  id : string;
  title : string;
  paper_ref : string;
  cells : quick:bool -> cell list;
  assemble : quick:bool -> string list list list -> Table.t list;
}

let of_cells ~id ~title ~paper_ref ~cells ~assemble =
  { id; title; paper_ref; cells; assemble }

let tasks ~quick t =
  List.map (fun c -> (t.id ^ "/" ^ c.label, c.thunk)) (t.cells ~quick)

let render_tables ppf t tables =
  Format.fprintf ppf "@.######## %s: %s@.######## (%s)@." t.id t.title
    t.paper_ref;
  List.iter (Table.render ppf) tables
