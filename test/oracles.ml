(* Naive reference implementations of the per-round tables the encoder
   builds its objective from, and a checker comparing the two bit for
   bit.  The library computes each table in one pass per round; these
   oracles recompute every entry from scratch, the way the encoder once
   did per candidate variable.  Also a per-event [Opid.Map] fold of a
   thread's events, the reference for [Windows]' rank-counted sides, and
   a stable sort by time, the reference for [Log]'s run merge. *)

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
