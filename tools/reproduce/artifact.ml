type cell = Text of string | Int of int | Pct of float

type table = { caption : string; header : string list; rows : cell list list }

type style = Markdown | Fenced

type t = { title : string; style : style; tables : table list }

let table ?(caption = "") header rows = { caption; header; rows }

let cell_text = function
  | Text s -> s
  | Int n -> string_of_int n
  | Pct p -> if Float.is_finite p then Printf.sprintf "%.0f%%" p else "n/a"

let numeric_cells t =
  List.concat_map
    (fun tbl ->
      List.concat_map
        (fun row ->
          let key column = cell_text (List.hd row) ^ "/" ^ column in
          List.filter_map Fun.id
            (List.map2
               (fun column c ->
                 match c with
                 | Int n -> Some (key column, float n)
                 | Pct p when Float.is_finite p -> Some (key column, p)
                 | Pct _ | Text _ -> None)
               (List.tl tbl.header) (List.tl row)))
        tbl.rows)
    t.tables

let rtrim s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

(* Columns are padded to their widest cell, so the raw markdown reads as
   a table too. *)
let render_table style tbl =
  let lines = tbl.header :: List.map (List.map cell_text) tbl.rows in
  let widths = Array.make (List.length tbl.header) 0 in
  List.iter
    (List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)))
    lines;
  let line cells =
    let cells =
      List.mapi (fun i s -> s ^ String.make (widths.(i) - String.length s) ' ') cells
    in
    match style with
    | Markdown -> "| " ^ String.concat " | " cells ^ " |"
    | Fenced -> rtrim (String.concat "  " cells)
  in
  let lines = List.map line lines in
  match style with
  | Markdown ->
    let rule = Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths) in
    List.hd lines :: ("|" ^ String.concat "|" rule ^ "|") :: List.tl lines
  | Fenced -> lines

let render t =
  let table_lines tbl =
    let caption =
      match (tbl.caption, t.style) with
      | "", _ -> []
      | c, Markdown -> [ "*" ^ c ^ "*"; "" ]
      | c, Fenced -> [ c ]
    in
    String.concat "\n" (caption @ render_table t.style tbl)
  in
  let body = String.concat "\n\n" (List.map table_lines t.tables) in
  match t.style with
  | Markdown -> body ^ "\n"
  | Fenced -> "```\n" ^ body ^ "\n```\n"
