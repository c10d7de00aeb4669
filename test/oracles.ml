(* Naive reference implementations of the per-round tables the encoder
   builds its objective from, and a checker comparing the two bit for
   bit.  The library computes each table in one pass per round; these
   oracles recompute every entry from scratch, the way the encoder once
   did per candidate variable.  Also a per-event [Opid.Map] fold of a
   thread's events, the reference for [Windows]' rank-counted sides, a
   stable sort by time, the reference for [Log]'s run merge, and the
   split-based text trace codec, the reference for [Trace_io]'s
   one-pass one, and the scheduler's list-based ready set, the reference
   for [Sherlock_sim.Ready]. *)

open Sherlock_trace
open Sherlock_core

(* Rare term input (Equation 4): fold every merged window once per op. *)
let avg_occurrence obs op =
  let total, count =
    List.fold_left
      (fun (total, count) (w : Observations.merged_window) ->
        let tally side (total, count) =
          match Windows.Side.find_opt op side with
          | Some n -> (total + (n * w.weight), count + w.weight)
          | None -> (total, count)
        in
        tally w.rel (tally w.acq (total, count)))
      (0, 0) (Observations.windows obs)
  in
  if count = 0 then 0.0 else float_of_int total /. float_of_int count

(* Variation term input (Equation 5): every method's CV, recomputed per
   ranked key. *)
let cv_percentile durs key =
  let all = List.map (Durations.cv durs) (Durations.methods durs) in
  Sherlock_util.Stats.percentile_rank all (Durations.cv durs key)

let unseen_op = Opid.read ~cls:"Oracle.Unseen" "nothing"

let unseen_method = "Oracle.Unseen::nothing"

(* Every candidate op and every method of [obs] (plus one of each seen
   nowhere) whose table value differs from its oracle in any bit, and the
   number of entries compared. *)
let table_mismatches obs =
  let bits = Int64.bits_of_float in
  let ops =
    List.fold_left
      (fun acc (w : Observations.merged_window) ->
        let add side acc =
          Windows.Side.fold (fun op _ acc -> Opid.Set.add op acc) side acc
        in
        add w.rel (add w.acq acc))
      (Opid.Set.singleton unseen_op) (Observations.windows obs)
  in
  let avg = Observations.avg_occurrences obs in
  let durs = Observations.durations obs in
  let pct = Durations.cv_percentiles durs in
  let methods = unseen_method :: Durations.methods durs in
  let bad_ops =
    Opid.Set.elements ops
    |> List.filter (fun op -> bits (avg op) <> bits (avg_occurrence obs op))
    |> List.map Opid.to_string
  in
  let bad_methods =
    List.filter (fun m -> bits (pct m) <> bits (cv_percentile durs m)) methods
  in
  (bad_ops @ bad_methods, Opid.Set.cardinal ops + List.length methods)

(* Window side of thread [tid] over [lo, hi]: the thread's events
   scanned in full and folded into an [Opid.Map], one update per
   occurrence. *)
let side_of_span log ~tid ~lo ~hi =
  List.fold_left
    (fun acc (e : Event.t) ->
      if e.time < lo || e.time > hi then acc
      else
        Opid.Map.update e.op (function None -> Some 1 | Some n -> Some (n + 1)) acc)
    Opid.Map.empty (Log.events_of_thread log tid)

(* The spans of [spans] whose [Windows.span_sides] bindings differ from
   the map fold's. *)
let side_mismatches log spans =
  let query = Windows.span_sides log in
  List.filter
    (fun (tid, lo, hi) ->
      Windows.Side.bindings (query ~tid ~lo ~hi)
      <> Opid.Map.bindings (side_of_span log ~tid ~lo ~hi))
    spans

(* Log order: every event paired with its position, heap-sorted on
   (time, position), and unpaired — the stable sort by time that the
   log constructors once ran on every array. *)
let time_sort arr =
  let stable = Array.mapi (fun i e -> (i, e)) arr in
  Array.sort
    (fun (i, (a : Event.t)) (j, b) ->
      match Int.compare a.time b.time with 0 -> Int.compare i j | c -> c)
    stable;
  Array.map snd stable

(* Text trace codec: every field through [string_of_int], every line
   split on spaces into fresh strings.  The reader builds each op through
   its constructor, whose [Invalid_argument] on a bad name it lets
   escape unpositioned, and takes only the first character of the kind
   field. *)
let text_magic = "sherlock-trace 1"

let text_kind_char = function
  | Opid.Read -> 'r'
  | Opid.Write -> 'w'
  | Opid.Begin -> 'b'
  | Opid.End -> 'e'

let text_kind_of_char = function
  | 'r' -> Opid.Read
  | 'w' -> Opid.Write
  | 'b' -> Opid.Begin
  | 'e' -> Opid.End
  | c -> failwith (Printf.sprintf "Trace_io: bad kind %C" c)

let text_of_log (log : Log.t) =
  let buf = Buffer.create (256 + (Array.length log.events * 48)) in
  let add_int n = Buffer.add_string buf (string_of_int n) in
  Buffer.add_string buf text_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "duration ";
  add_int log.duration;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "threads ";
  add_int log.threads;
  Buffer.add_char buf '\n';
  List.iter
    (fun addr ->
      Buffer.add_string buf "volatile ";
      add_int addr;
      Buffer.add_char buf '\n')
    (Log.volatile_list log);
  Array.iter
    (fun (e : Event.t) ->
      Buffer.add_string buf "e ";
      add_int e.time;
      Buffer.add_char buf ' ';
      add_int e.tid;
      Buffer.add_char buf ' ';
      Buffer.add_char buf (text_kind_char e.op.kind);
      Buffer.add_char buf ' ';
      add_int e.target;
      Buffer.add_char buf ' ';
      add_int e.delayed_by;
      Buffer.add_char buf ' ';
      Buffer.add_string buf e.op.cls;
      Buffer.add_char buf ' ';
      Buffer.add_string buf e.op.member;
      Buffer.add_char buf '\n')
    log.events;
  Buffer.contents buf

let log_of_text ?(path = "<string>") s =
  let lines = String.split_on_char '\n' s in
  let malformed lineno line =
    failwith (Printf.sprintf "%s:%d: Trace_io: malformed line: %s" path lineno line)
  in
  match lines with
  | first :: rest when first = text_magic ->
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
        let make =
          match text_kind_of_char kind.[0] with
          | Opid.Read -> Opid.read
          | Write -> Opid.write
          | Begin -> Opid.enter
          | End -> Opid.exit
        in
        let op = make ~cls member in
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

(* The scheduler's ready set as a list, newest push at the head: fold for
   the minimum clock, filter the tied entries, draw among them only on a
   tie, filter the chosen thread out.  [pick] returns the chosen tid and
   the number of entries that were ready, the chosen one included. *)
module Ready_list = struct
  module Rng = Sherlock_util.Rng

  type entry = {
    tid : int;
    clock : int;
  }

  type t = { mutable ready : entry list }

  let create () = { ready = [] }

  let push r ~tid ~clock = r.ready <- { tid; clock } :: r.ready

  let pick r rng =
    match r.ready with
    | [] -> None
    | ready ->
      let min_clock = List.fold_left (fun acc e -> min acc e.clock) max_int ready in
      let mins = List.filter (fun e -> e.clock = min_clock) ready in
      let e =
        match mins with
        | [ one ] -> one
        | _ -> List.nth mins (Rng.int rng (List.length mins))
      in
      r.ready <- List.filter (fun e' -> e'.tid <> e.tid) ready;
      Some (e.tid, List.length ready)
end
