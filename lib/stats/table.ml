type t = {
  headers : string list;
  width : int;
  mutable rows : string list list; (* reverse order *)
}

let create ~headers = { headers; width = List.length headers; rows = [] }

let add_row t row =
  if List.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" t.width (List.length row));
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) t.headers)
      all
  in
  let line row =
    String.concat "  " (List.map2 (fun w cell -> Printf.sprintf "%*s" w cell) widths row)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line t.headers :: sep :: List.map line rows) ^ "\n"

let escape_csv cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let rows = t.headers :: List.rev t.rows in
  String.concat "\n" (List.map (fun row -> String.concat "," (List.map escape_csv row)) rows)
  ^ "\n"
