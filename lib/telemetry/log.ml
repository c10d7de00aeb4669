(* Structured logging: levelled events with key/value context, rendered
   as one JSON object per line (JSONL).  The pipeline's fault-handling
   paths — supervised retries, LP degradation, the scheduler watchdog —
   emit through here so operational events are grep-able and
   machine-parseable instead of ad-hoc [eprintf] lines.

   Emission is a no-op (one load) until a sink is installed, so
   instrumented code logs unconditionally; the CLI installs a sink only
   when the user asks ([--log-out] or [SHERLOCK_LOG]).  Only the main
   thread logs: the snapshot ticker never does. *)

type level = Debug | Info | Warn | Error

let level_priority = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type value = Int of int | Float of float | Bool of bool | Str of string

type sink =
  | Null
  | Chan of { oc : out_channel; close : bool }
  | Writer of (string -> unit)

type state = {
  mutable sink : sink;
  mutable min_level : level;
  mutable t0 : float;  (* installation time; elapsed_s is relative to it *)
}

let state = { sink = Null; min_level = Debug; t0 = 0.0 }

let enabled level =
  (match state.sink with Null -> false | Chan _ | Writer _ -> true)
  && level_priority level >= level_priority state.min_level

let set_level l = state.min_level <- l

let close_current_sink () =
  match state.sink with
  | Chan { oc; close } ->
    flush oc;
    if close then close_out_noerr oc
  | Null | Writer _ -> ()

let install sink =
  close_current_sink ();
  state.sink <- sink;
  state.t0 <- Unix.gettimeofday ()

let set_writer = function
  | None -> install Null
  | Some w -> install (Writer w)

let to_file path = install (Chan { oc = open_out path; close = true })

let to_stderr () = install (Chan { oc = stderr; close = false })

let close () = install Null

let init_from_env () =
  match Sys.getenv_opt "SHERLOCK_LOG" with
  | None | Some "" -> ()
  | Some "stderr" -> to_stderr ()
  | Some spec -> (
    (* "PATH" or "LEVEL:PATH" (e.g. "warn:/tmp/sherlock.jsonl"). *)
    match String.index_opt spec ':' with
    | Some i
      when Option.is_some (level_of_string (String.sub spec 0 i))
           && i + 1 < String.length spec ->
      let level = Option.get (level_of_string (String.sub spec 0 i)) in
      let path = String.sub spec (i + 1) (String.length spec - i - 1) in
      if path = "stderr" then to_stderr () else to_file path;
      set_level level
    | _ -> to_file spec)

let buf_add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    (* JSON has no nan/infinity literal; null keeps the line parseable. *)
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
    else Buffer.add_string b "null"
  | Bool bo -> Buffer.add_string b (if bo then "true" else "false")
  | Str s -> Sherlock_util.Json_string.add b s

let render level event fields ~ts ~elapsed =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf {|{"ts":%.6f,"elapsed_s":%.6f,|} ts elapsed);
  Buffer.add_string b {|"level":|};
  Sherlock_util.Json_string.add b (level_name level);
  Buffer.add_string b {|,"event":|};
  Sherlock_util.Json_string.add b event;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Sherlock_util.Json_string.add b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let emit level event fields =
  if enabled level then begin
    let ts = Unix.gettimeofday () in
    let line = render level event fields ~ts ~elapsed:(ts -. state.t0) in
    match state.sink with
    | Null -> ()
    | Chan { oc; _ } ->
      output_string oc line;
      output_char oc '\n';
      (* Flushed per event so an external `tail -f` sees fault events
         as they happen; every emitting path is cold. *)
      flush oc
    | Writer w -> w line
  end

let debug event fields = emit Debug event fields

let info event fields = emit Info event fields

let warn event fields = emit Warn event fields

let error event fields = emit Error event fields
