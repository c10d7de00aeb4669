let open_prefix = "<!-- reproduce:"

let marker_suffix = " -->"

let close_marker = "<!-- /reproduce -->"

let block_name line =
  let line = String.trim line in
  let lp = String.length open_prefix and ls = String.length marker_suffix in
  let n = String.length line in
  if
    n > lp + ls
    && String.starts_with ~prefix:open_prefix line
    && String.ends_with ~suffix:marker_suffix line
  then Some (String.sub line lp (n - lp - ls))
  else None

exception Bad_marker of int * string

let splice ~file ~render doc =
  let lines = String.split_on_char '\n' doc in
  let out = Buffer.create (String.length doc) in
  let emit s =
    Buffer.add_string out s;
    Buffer.add_char out '\n'
  in
  (* [open_block] is the name and line of the block being replaced. *)
  let step open_block (lineno, line) =
    match (open_block, block_name line) with
    | None, Some name -> (
      match render name with
      | None -> raise (Bad_marker (lineno, Printf.sprintf "unknown block %S" name))
      | Some text ->
        emit line;
        emit "";
        Buffer.add_string out text;
        emit "";
        Some (name, lineno))
    | Some (name, at), Some _ ->
      let msg = Printf.sprintf "marker nested in block %S opened at line %d" name at in
      raise (Bad_marker (lineno, msg))
    | None, None ->
      if String.trim line = close_marker then
        raise (Bad_marker (lineno, "closing marker without an open block"));
      emit line;
      None
    | Some _, None ->
      if String.trim line = close_marker then begin
        emit line;
        None
      end
      else open_block
  in
  match List.fold_left step None (List.mapi (fun i l -> (i + 1, l)) lines) with
  | exception Bad_marker (lineno, msg) ->
    Error (Printf.sprintf "%s:%d: %s" file lineno msg)
  | Some (name, at) ->
    Error (Printf.sprintf "%s:%d: block %S is never closed" file at name)
  | None ->
    (* [emit] added a newline after the last line too. *)
    Ok (Buffer.sub out 0 (Buffer.length out - 1))
