(* OpenMetrics / Prometheus text exposition of a metrics snapshot, plus
   the parser the `sherlock stats` console and the smoke checks read it
   back with.

   Mangling: registry names are dotted ("windows.span_cache.hit");
   OpenMetrics metric names must match [a-z_:][a-z0-9_:]* (we emit
   lowercase only).  Every name is prefixed "sherlock_" (guaranteeing a
   legal first character), uppercase is folded, and every other illegal
   character maps to '_'.  Counters additionally get the conventional
   "_total" suffix; histograms expose "_bucket"/"_sum"/"_count" series
   with cumulative power-of-two "le" labels.  The original registry
   name is preserved verbatim in the HELP text, so mangling never loses
   the mapping back. *)

type mtype = MCounter | MGauge | MHistogram | MUnknown

let mtype_name = function
  | MCounter -> "counter"
  | MGauge -> "gauge"
  | MHistogram -> "histogram"
  | MUnknown -> "untyped"

let mangle name =
  let b = Buffer.create (String.length name + 9) in
  Buffer.add_string b "sherlock_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let valid_name s =
  let ok_first = function 'a' .. 'z' | '_' | ':' -> true | _ -> false in
  let ok_rest = function
    | 'a' .. 'z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  String.length s > 0
  && ok_first s.[0]
  && (let all = ref true in
      String.iteri (fun i c -> if i > 0 && not (ok_rest c) then all := false) s;
      !all)

(* HELP text escaping per the exposition format: backslash and newline. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_str f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let of_point (p : Snapshot.point) =
  let b = Buffer.create 4096 in
  let header name typ raw =
    Printf.bprintf b "# HELP %s SherLock metric %s\n" name (escape_help raw);
    Printf.bprintf b "# TYPE %s %s\n" name (mtype_name typ)
  in
  (* Snapshot self-description: when the file was produced and which
     snapshot it is, so a scraper can detect staleness. *)
  header "sherlock_snapshot_timestamp_seconds" MGauge "snapshot wall-clock time";
  Printf.bprintf b "sherlock_snapshot_timestamp_seconds %s\n" (float_str p.p_ts);
  header "sherlock_snapshot_seq" MGauge "snapshots taken since plane start";
  Printf.bprintf b "sherlock_snapshot_seq %d\n" p.p_seq;
  List.iter
    (fun (raw, v) ->
      let base = mangle raw in
      (* Conventional counter suffix — but never doubled for registry
         names that already end in ".total". *)
      let name =
        if String.length base >= 6
           && String.sub base (String.length base - 6) 6 = "_total"
        then base
        else base ^ "_total"
      in
      header name MCounter raw;
      Printf.bprintf b "%s %d\n" name v)
    p.p_counters;
  List.iter
    (fun (raw, v) ->
      let name = mangle raw in
      header name MGauge raw;
      Printf.bprintf b "%s %d\n" name v)
    p.p_gauges;
  List.iter
    (fun (raw, (h : Snapshot.hist_summary)) ->
      let name = mangle raw in
      header name MHistogram raw;
      (* Cumulative buckets up to the highest populated one; bucket i's
         upper bound is 2^i (bucket 0 covers everything <= 1).  The
         final +Inf bucket always equals the count. *)
      let last = ref (-1) in
      Array.iteri (fun i n -> if n > 0 then last := i) h.e_buckets;
      let cum = ref 0 in
      for i = 0 to !last do
        cum := !cum + h.e_buckets.(i);
        let le =
          if i = 0 then 1.0 else Float.pow 2.0 (float_of_int i)
        in
        Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name (float_str le) !cum
      done;
      Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name h.e_count;
      Printf.bprintf b "%s_sum %s\n" name (float_str h.e_sum);
      Printf.bprintf b "%s_count %d\n" name h.e_count)
    p.p_hists;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let to_string ?registry () =
  let registry =
    match registry with Some r -> r | None -> Metrics.default
  in
  let ring = Snapshot.create ~capacity:1 ~registry () in
  of_point (Snapshot.take ~label:"export" ring)

(* Atomic rewrite: scrape-friendly — an external reader tailing the
   path never observes a half-written exposition. *)
let write_atomic path contents =
  Sherlock_util.Atomic_file.write path (fun oc -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Parser.  Covers the subset this exporter emits (which is also what
   the smoke gate validates): HELP/TYPE/EOF comment lines and samples
   with an optional single-level label set.  Errors carry the 1-based
   line number. *)

type sample = {
  s_series : string;  (* full series name, e.g. "sherlock_x_bucket" *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = {
  f_name : string;
  f_type : mtype;
  f_help : string option;
  mutable f_samples : sample list;  (* file order *)
}

let parse text =
  let families : (string, family) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let get_family name =
    match Hashtbl.find_opt families name with
    | Some f -> f
    | None ->
      let f = { f_name = name; f_type = MUnknown; f_help = None; f_samples = [] } in
      Hashtbl.add families name f;
      order := name :: !order;
      f
  in
  let set_family name typ help =
    let f = get_family name in
    let f =
      match (typ, help) with
      | Some t, _ -> { f with f_type = t }
      | None, Some h -> { f with f_help = Some h }
      | None, None -> f
    in
    Hashtbl.replace families name f;
    f
  in
  (* A series name belongs to family [n] if it is [n] or [n] plus a
     conventional suffix; checked against declared families so
     "# TYPE x histogram" adopts "x_bucket". *)
  let family_of_series series =
    let strip suffix =
      if String.length series > String.length suffix
         && String.sub series
              (String.length series - String.length suffix)
              (String.length suffix)
            = suffix
      then
        Some (String.sub series 0 (String.length series - String.length suffix))
      else None
    in
    let candidates =
      series
      :: List.filter_map strip [ "_total"; "_bucket"; "_sum"; "_count"; "_created" ]
    in
    match List.find_opt (Hashtbl.mem families) candidates with
    | Some n -> n
    | None -> series
  in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_labels lineno s =
    (* s is the text between '{' and '}'. *)
    let parts = if s = "" then [] else String.split_on_char ',' s in
    let parse_one part =
      match String.index_opt part '=' with
      | None -> Error (Printf.sprintf "line %d: malformed label %S" lineno part)
      | Some i ->
        let k = String.sub part 0 i in
        let v = String.sub part (i + 1) (String.length part - i - 1) in
        if String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"'
        then Ok (k, String.sub v 1 (String.length v - 2))
        else Error (Printf.sprintf "line %d: unquoted label value %S" lineno v)
    in
    List.fold_left
      (fun acc part ->
        match (acc, parse_one part) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok l, Ok kv -> Ok (kv :: l))
      (Ok []) parts
    |> Result.map List.rev
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno saw_eof = function
    | [] ->
      if saw_eof then
        Ok (List.rev_map (fun n -> Hashtbl.find families n) !order)
      else Error "missing # EOF terminator"
    | line :: rest ->
      let line = String.trim line in
      if line = "" then go (lineno + 1) saw_eof rest
      else if saw_eof then err lineno "content after # EOF"
      else if line = "# EOF" then go (lineno + 1) true rest
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ typ ] ->
          if not (valid_name name) then
            err lineno (Printf.sprintf "invalid metric name %S" name)
          else
            let typ =
              match typ with
              | "counter" -> Some MCounter
              | "gauge" -> Some MGauge
              | "histogram" -> Some MHistogram
              | "untyped" | "unknown" | "summary" | "info" | "stateset" -> Some MUnknown
              | _ -> None
            in
            (match typ with
            | None -> err lineno "unknown TYPE"
            | Some t ->
              ignore (set_family name (Some t) None);
              go (lineno + 1) saw_eof rest)
        | "#" :: "HELP" :: name :: help_words ->
          if not (valid_name name) then
            err lineno (Printf.sprintf "invalid metric name %S" name)
          else begin
            ignore (set_family name None (Some (String.concat " " help_words)));
            go (lineno + 1) saw_eof rest
          end
        | _ -> err lineno (Printf.sprintf "malformed comment line %S" line)
      end
      else begin
        (* Sample: series[{labels}] value *)
        match String.index_opt line ' ' with
        | None -> err lineno (Printf.sprintf "malformed sample line %S" line)
        | Some sp ->
          let series_part = String.sub line 0 sp in
          let value_part =
            String.trim (String.sub line (sp + 1) (String.length line - sp - 1))
          in
          let series, labels_res =
            match String.index_opt series_part '{' with
            | None -> (series_part, Ok [])
            | Some lb ->
              if series_part.[String.length series_part - 1] <> '}' then
                (series_part, err lineno "unterminated label set")
              else
                ( String.sub series_part 0 lb,
                  parse_labels lineno
                    (String.sub series_part (lb + 1)
                       (String.length series_part - lb - 2)) )
          in
          if not (valid_name series) then
            err lineno (Printf.sprintf "invalid series name %S" series)
          else begin
            match labels_res with
            | Error e -> Error e
            | Ok s_labels -> (
              let value =
                match value_part with
                | "+Inf" -> Some infinity
                | "-Inf" -> Some neg_infinity
                | "NaN" -> Some nan
                | v -> float_of_string_opt v
              in
              match value with
              | None -> err lineno (Printf.sprintf "bad value %S" value_part)
              | Some s_value ->
                let fam = get_family (family_of_series series) in
                fam.f_samples <-
                  fam.f_samples @ [ { s_series = series; s_labels; s_value } ];
                go (lineno + 1) saw_eof rest)
          end
      end
  in
  go 1 false lines

let parse_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    parse s
