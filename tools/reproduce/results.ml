module Json = Sherlock_provenance.Json
module Stats = Sherlock_util.Stats

let collect ?(progress = ignore) ~seeds artifacts =
  let per_seed =
    List.map
      (fun seed ->
        progress seed;
        Paper.clear_cache ();
        let config = { Sherlock_core.Config.default with seed } in
        List.map (fun (name, f) -> (name, Artifact.numeric_cells (f config))) artifacts)
      seeds
  in
  let artifact_json name =
    let cells = List.map (List.assoc name) per_seed in
    (* Cell keys in order of first appearance over the seeds. *)
    let keys =
      List.fold_left
        (fun keys cs ->
          keys @ List.filter (fun k -> not (List.mem k keys)) (List.map fst cs))
        [] cells
    in
    let cell key =
      let values = List.map (List.assoc_opt key) cells in
      let present = List.filter_map Fun.id values in
      let value = function Some x -> Json.Num x | None -> Json.Null in
      ( key,
        Json.Obj
          [
            ("values", Json.Arr (List.map value values));
            ("median", Json.Num (Stats.median present));
            ("q1", Json.Num (Stats.quantile 0.25 present));
            ("q3", Json.Num (Stats.quantile 0.75 present));
          ] )
    in
    (name, Json.Obj (List.map cell keys))
  in
  Json.Obj
    [
      ("seeds", Json.Arr (List.map (fun s -> Json.Num (float s)) seeds));
      ( "artifacts",
        Json.Obj (List.map (fun (name, _) -> artifact_json name) artifacts) );
    ]

let spread json ~artifact key =
  let cell = Json.member key (Json.member artifact (Json.member "artifacts" json)) in
  match (Json.member "median" cell, Json.member "q1" cell, Json.member "q3" cell) with
  | Json.Num m, Json.Num q1, Json.Num q3 -> Some (m, q1, q3)
  | _ -> None

(* The rows that get a spread row under their table: Table 2's sums and
   Table 5's full configuration. *)
let spread_rows = [ ("table2", "Sum"); ("table5", "SherLock") ]

let with_spread json name (art : Artifact.t) =
  let row_label = List.assoc_opt name spread_rows in
  let is_row row = Some (Artifact.cell_text (List.hd row)) = row_label in
  match art.tables with
  | tbl :: rest when List.exists is_row tbl.rows ->
    let row_label = Option.get row_label in
    let seeds = Json.to_list (Json.member "seeds" json) in
    let label =
      match (seeds, List.rev seeds) with
      | Json.Num first :: _, Json.Num last :: _ ->
        Printf.sprintf "%s median [IQR], seeds %.0f-%.0f" row_label first last
      | _ -> row_label ^ " median [IQR]"
    in
    let num x = Printf.sprintf (if Float.is_integer x then "%.0f" else "%.1f") x in
    let cell header (c : Artifact.cell) =
      match spread json ~artifact:name (row_label ^ "/" ^ header) with
      | None -> Artifact.Text ""
      | Some (m, q1, q3) ->
        let unit = match c with Artifact.Pct _ -> "%" | Artifact.Int _ | Text _ -> "" in
        Artifact.Text (Printf.sprintf "%s%s [%s, %s]" (num m) unit (num q1) (num q3))
    in
    let row = List.find is_row tbl.rows in
    let spread_row =
      Artifact.Text label :: List.map2 cell (List.tl tbl.header) (List.tl row)
    in
    { art with tables = { tbl with rows = tbl.rows @ [ spread_row ] } :: rest }
  | _ -> art
