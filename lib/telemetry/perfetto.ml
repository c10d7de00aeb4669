type arg = Span.value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type ph =
  | Complete of int
  | Instant
  | Counter
  | Flow_start of int
  | Flow_end of int
  | Metadata

type event = {
  name : string;
  cat : string;
  ph : ph;
  ts : int;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

let complete ?(cat = "") ?(args = []) ~name ~ts ~dur ~pid ~tid () =
  { name; cat; ph = Complete dur; ts; pid; tid; args }

let instant ?(cat = "") ?(args = []) ~name ~ts ~pid ~tid () =
  { name; cat; ph = Instant; ts; pid; tid; args }

let counter ?(cat = "counter") ~name ~ts ~pid ~value () =
  { name; cat; ph = Counter; ts; pid; tid = 0; args = [ ("value", Int value) ] }

let flow_start ?(cat = "flow") ?(name = "flow") ~id ~ts ~pid ~tid () =
  { name; cat; ph = Flow_start id; ts; pid; tid; args = [] }

let flow_end ?(cat = "flow") ?(name = "flow") ~id ~ts ~pid ~tid () =
  { name; cat; ph = Flow_end id; ts; pid; tid; args = [] }

let process_name ~pid name =
  {
    name = "process_name";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid = 0;
    args = [ ("name", Str name) ];
  }

let thread_name ~pid ~tid name =
  {
    name = "thread_name";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid;
    args = [ ("name", Str name) ];
  }

let thread_sort_index ~pid ~tid index =
  {
    name = "thread_sort_index";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid;
    args = [ ("sort_index", Int index) ];
  }

let prepare events =
  let clamp e =
    match e.ph with
    | Complete d when d < 0 -> { e with ph = Complete 0 }
    | Complete _ | Instant | Counter | Flow_start _ | Flow_end _ | Metadata -> e
  in
  let meta, rest = List.partition (fun e -> e.ph = Metadata) events in
  meta @ List.stable_sort (fun a b -> Int.compare a.ts b.ts) (List.map clamp rest)

let add_arg buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%g" f)
    else Sherlock_util.Json_string.add buf (string_of_float f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s -> Sherlock_util.Json_string.add buf s

let add_event buf e =
  let field name add_value =
    Sherlock_util.Json_string.add buf name;
    Buffer.add_char buf ':';
    add_value ()
  in
  Buffer.add_char buf '{';
  field "name" (fun () -> Sherlock_util.Json_string.add buf e.name);
  Buffer.add_char buf ',';
  if e.cat <> "" then begin
    field "cat" (fun () -> Sherlock_util.Json_string.add buf e.cat);
    Buffer.add_char buf ','
  end;
  let ph, extra =
    match e.ph with
    | Complete dur -> ("X", [ ("dur", `I dur) ])
    | Instant -> ("i", [ ("s", `S "t") ])
    | Counter -> ("C", [])
    | Flow_start id -> ("s", [ ("id", `I id) ])
    | Flow_end id -> ("f", [ ("id", `I id); ("bp", `S "e") ])
    | Metadata -> ("M", [])
  in
  field "ph" (fun () -> Sherlock_util.Json_string.add buf ph);
  Buffer.add_char buf ',';
  List.iter
    (fun (k, v) ->
      field k (fun () ->
          match v with
          | `I i -> Buffer.add_string buf (string_of_int i)
          | `S s -> Sherlock_util.Json_string.add buf s);
      Buffer.add_char buf ',')
    extra;
  field "ts" (fun () -> Buffer.add_string buf (string_of_int e.ts));
  Buffer.add_char buf ',';
  field "pid" (fun () -> Buffer.add_string buf (string_of_int e.pid));
  Buffer.add_char buf ',';
  field "tid" (fun () -> Buffer.add_string buf (string_of_int e.tid));
  if e.args <> [] then begin
    Buffer.add_char buf ',';
    field "args" (fun () ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Sherlock_util.Json_string.add buf k;
            Buffer.add_char buf ':';
            add_arg buf v)
          e.args;
        Buffer.add_char buf '}')
  end;
  Buffer.add_char buf '}'

let to_string events =
  let events = prepare events in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf e)
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write path events =
  Sherlock_util.Atomic_file.write path (fun oc -> output_string oc (to_string events))

let of_spans collector =
  let epoch = Span.epoch collector in
  let us t = int_of_float ((t -. epoch) *. 1e6) in
  let events =
    List.map
      (fun (s : Span.closed) ->
        let args =
          ("span_id", Int s.id)
          :: (match s.parent with Some p -> [ ("parent", Int p) ] | None -> [])
          @ (("cpu_ms", Float ((s.cpu_end_s -. s.cpu_start_s) *. 1e3)) :: s.attrs)
        in
        complete ~cat:"span" ~args ~name:s.name ~ts:(us s.start_s)
          ~dur:(us s.end_s - us s.start_s) ~pid:0 ~tid:0 ())
      (Span.closed_spans collector)
  in
  process_name ~pid:0 "sherlock (wall clock)"
  :: thread_name ~pid:0 ~tid:0 "pipeline"
  :: events

let of_points ~epoch points =
  let us t = int_of_float ((t -. epoch) *. 1e6) in
  List.concat_map
    (fun (p : Snapshot.point) ->
      let ts = max 0 (us p.p_ts) in
      instant ~cat:"snapshot" ~name:p.p_label ~ts ~pid:0 ~tid:0 ()
      :: List.map (fun (name, v) -> counter ~name ~ts ~pid:0 ~value:v ()) p.p_counters)
    points
