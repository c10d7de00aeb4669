type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Shortest decimal rendering that parses back to the same float; %.17g
   always does, %.12g usually does and is easier on the eyes. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if not (Float.is_finite f) then
        invalid_arg "Json.to_string: non-finite number";
      Buffer.add_string buf (float_str f)
    | Str s -> Sherlock_util.Json_string.add buf s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Sherlock_util.Json_string.add buf k;
          Buffer.add_char buf ':';
          go x)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else begin
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               pos := !pos + 4;
               let code =
                 try int_of_string ("0x" ^ hex)
                 with _ -> fail "bad \\u escape"
               in
               (* UTF-8 encode the code point (surrogates kept as-is
                  bytes-wise is wrong; the writer never emits them for
                  the code points provenance uses, which are ASCII). *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
             | _ -> fail "bad escape"
           end);
          go ()
        | c -> Buffer.add_char buf c; go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
    Error (Printf.sprintf "byte %d: %s" p msg)

let member k = function
  | Obj fields -> (
    match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function
  | Arr xs -> xs
  | _ -> []
