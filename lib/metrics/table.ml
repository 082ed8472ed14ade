type t = {
  title : string;
  columns : string list;
  rows : string list list; (* newest last *)
  notes : string list; (* newest last *)
}

let make ~title ~columns () = { title; columns; rows = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row(%s): row width %d, expected %d" t.title
         (List.length row) (List.length t.columns));
  { t with rows = t.rows @ [ row ] }

let add_rows t rows = List.fold_left add_row t rows

let note t n = { t with notes = t.notes @ [ n ] }

let title t = t.title

let columns t = t.columns

let rows t = t.rows

let widths t =
  let update acc row =
    List.map2 (fun w cell -> max w (String.length cell)) acc row
  in
  List.fold_left update (List.map String.length t.columns) t.rows

let render ppf t =
  let ws = widths t in
  let pad cell w = cell ^ String.make (w - String.length cell) ' ' in
  let line ch =
    String.concat "-+-" (List.map (fun w -> String.make w ch) ws)
  in
  Format.fprintf ppf "@.== %s ==@." t.title;
  Format.fprintf ppf "%s@."
    (String.concat " | " (List.map2 pad t.columns ws));
  Format.fprintf ppf "%s@." (line '-');
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@." (String.concat " | " (List.map2 pad row ws)))
    t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let row_line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (row_line t.columns :: List.map row_line t.rows) ^ "\n"

let cell_f v = Printf.sprintf "%.6g" v

let cell_e v = Printf.sprintf "%.3e" v

let cell_ratio v = Printf.sprintf "%.2f" v
