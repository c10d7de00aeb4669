(* Format-dispatching front for trace files: sniffs the leading magic
   bytes and routes to the text codec below or to [Trace_bin].  The text
   format remains the import/debug path (and the default for [save]);
   the binary format is the fast path for large logs. *)

type format = Text | Binary

let magic = "sherlock-trace 1"

let kind_char = function
  | Opid.Read -> 'r'
  | Opid.Write -> 'w'
  | Opid.Begin -> 'b'
  | Opid.End -> 'e'

let kind_of_char = function
  | 'r' -> Opid.Read
  | 'w' -> Opid.Write
  | 'b' -> Opid.Begin
  | 'e' -> Opid.End
  | c -> failwith (Printf.sprintf "Trace_io: bad kind %C" c)

(* Serialization appends fields straight into the buffer (no per-field
   [Printf.sprintf] round-trips): a large trace is dominated by its event
   lines, and format interpretation plus the intermediate strings showed
   up in profiles. *)
let add_int buf n =
  Buffer.add_string buf (string_of_int n)

let to_buffer (log : Log.t) =
  let buf = Buffer.create (256 + (Array.length log.events * 48)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "duration ";
  add_int buf log.duration;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "threads ";
  add_int buf log.threads;
  Buffer.add_char buf '\n';
  List.iter
    (fun addr ->
      Buffer.add_string buf "volatile ";
      add_int buf addr;
      Buffer.add_char buf '\n')
    (Log.volatile_list log);
  Array.iter
    (fun (e : Event.t) ->
      (* Re-checked here even though the constructors validate: [Opid.t]
         is a concrete record, so hand-built values can bypass them, and
         a name with a space would shear the event line into extra
         fields. *)
      Opid.check_name e.op.cls;
      Opid.check_name e.op.member;
      Buffer.add_string buf "e ";
      add_int buf e.time;
      Buffer.add_char buf ' ';
      add_int buf e.tid;
      Buffer.add_char buf ' ';
      Buffer.add_char buf (kind_char e.op.kind);
      Buffer.add_char buf ' ';
      add_int buf e.target;
      Buffer.add_char buf ' ';
      add_int buf e.delayed_by;
      Buffer.add_char buf ' ';
      Buffer.add_string buf e.op.cls;
      Buffer.add_char buf ' ';
      Buffer.add_string buf e.op.member;
      Buffer.add_char buf '\n')
    log.events;
  buf

let of_string_text ?(path = "<string>") s =
  let lines = String.split_on_char '\n' s in
  (* Parse errors carry file:line (1-based, counting the magic line) so a
     truncated or garbled trace file points straight at the bad spot. *)
  let malformed lineno line =
    failwith (Printf.sprintf "%s:%d: Trace_io: malformed line: %s" path lineno line)
  in
  match lines with
  | first :: rest when first = magic ->
    let duration = ref 0 in
    let threads = ref 0 in
    let volatile_addrs = Hashtbl.create 8 in
    let events = ref [] in
    let parse_line lineno line =
      match String.split_on_char ' ' line with
        | [ "" ] | [] -> ()
        | [ "duration"; d ] -> duration := int_of_string d
        | [ "threads"; n ] -> threads := int_of_string n
        | [ "volatile"; a ] -> Hashtbl.replace volatile_addrs (int_of_string a) ()
        | [ "e"; time; tid; kind; target; delayed_by; cls; member ] ->
          let op = { Opid.cls; member; kind = kind_of_char kind.[0] } in
          events :=
            Event.make ~time:(int_of_string time) ~tid:(int_of_string tid) ~op
              ~target:(int_of_string target)
              ~delayed_by:(int_of_string delayed_by)
              ()
            :: !events
      | _ -> malformed lineno line
    in
    List.iteri
      (fun i line ->
        let lineno = i + 2 in
        try parse_line lineno line
        with Failure msg
          when msg = "int_of_string"
               || (String.length msg >= 14 && String.sub msg 0 14 = "Trace_io: bad ") ->
          malformed lineno line)
      rest;
    Log.create ~events:(List.rev !events) ~duration:!duration ~threads:!threads
      ~volatile_addrs
  | _ -> failwith (Printf.sprintf "%s:1: Trace_io: bad magic" path)

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let sniff s =
  let bl = String.length Trace_bin.magic in
  if String.length s >= bl && String.sub s 0 bl = Trace_bin.magic then Binary
  else Text

let format_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = min (in_channel_length ic) (String.length Trace_bin.magic) in
      sniff (really_input_string ic n))

let format_name = function Text -> "text" | Binary -> "binary"

let to_string ?(format = Text) log =
  match format with
  | Text -> Buffer.contents (to_buffer log)
  | Binary -> Trace_bin.to_string log

let of_string ?path s =
  match sniff s with
  | Binary -> Trace_bin.of_string ?path s
  | Text -> of_string_text ?path s

let save ?(format = Text) log path =
  match format with
  | Binary -> Trace_bin.save log path
  | Text ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Buffer.output_buffer oc (to_buffer log))

let load path =
  match format_of_file path with
  | Binary -> Trace_bin.load path
  | Text ->
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string_text ~path (really_input_string ic (in_channel_length ic)))
