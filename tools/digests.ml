(* Bitwise fingerprint of corpus inference.

   Runs the full multi-round inference of every corpus app at config
   seeds 1..N and hashes every round's verdicts, the exact bits of their
   probabilities, and the exact bits of the round's LP objective: once
   as configured ([warm]: each round warm-starts from the previous
   round's basis) and once with provenance capture, which also hashes
   each final verdict's confidence margin.  The [cold] line hashes the
   same for each inference's final observations solved once more with
   no encoder state, that is, from an empty basis.  Two builds that
   print the same first three lines made the same decisions with the
   same floating-point values everywhere.

   A fourth line, [extract], hashes window extraction itself: every
   window (pair, field, both sides' ops with their counts, coordinates)
   and every race of three synthetic 20k-event logs with refinement on.
   Verdicts only see merged windows through the LP, so this is the line
   that shows window contents are identical.

   A fifth line, [log], hashes the simulator's logs as the analyses see
   them: every event (time, tid, op, target, delay) in log order, for
   every test of every corpus app and for the lock-contention stress
   program (6 workers x 150 iterations), at simulator seeds 1..3, each
   run once without delays and once under a fixed delay plan.  It is the
   line that shows log construction orders events identically.

   A sixth line, [codec], hashes the trace codecs over the same logs:
   each log's text and binary encodings, and the events decoded back
   from each, so it shows both formats write and read identically.

   A seventh line, [durations], hashes the method-duration samples of
   the same logs: per test, all six runs are recorded into one
   {!Sherlock_trace.Durations.t} in run order, and every method key is
   hashed in key order with its samples' exact bits ([%h]) in the order
   the frames closed ([End] order, earlier runs first).  It shows sample
   recovery and the per-method lists the CV ranks are computed from are
   identical.  It uses only [Durations.record_log], [samples] and
   [methods], so the same file builds against older trees.

   [--dump FILE] writes the rounds the [warm], [cold] and [provenance]
   lines hash as text, one line per round: section, seed, app and round,
   then the objective and each verdict's probability at %.17g.  The
   margins are left out: they are duals, which a degenerate optimum does
   not determine, so a different pivot path may move them with every
   decision unchanged.  [--against FILE] compares this run's dump with
   FILE instead of bit for bit: it prints the largest difference and
   exits 1 if any line's verdict set differs or any value differs by
   more than 1e-9 (relative above magnitude 1).  It is the check for a
   change that may move last bits but no decision, such as a new pivot
   rule or starting basis.

   [main] parses those flags ([--seeds N], default 30) and prints the
   lines; [verdict_digest.exe] is [main] alone, and
   [ids_unobservable.exe] first creates ops in an unusual order (see
   there). *)

open Sherlock_core
module Windows = Sherlock_trace.Windows
module Opid = Sherlock_trace.Opid

let bits b f = Buffer.add_string b (Int64.to_string (Int64.bits_of_float f))

let add_round b objective verdicts =
  bits b objective;
  List.iter
    (fun (v : Verdict.t) ->
      Printf.bprintf b ";%s^%s=" (Sherlock_trace.Opid.to_string v.op)
        (Verdict.role_name v.role);
      bits b v.probability)
    verdicts

(* One dump line: the tab-separated key fields, then [name=value]
   entries, the objective first. *)
let dump_round d key objective verdicts =
  Buffer.add_string d (String.concat "\t" key);
  Printf.bprintf d "\tobjective=%.17g" objective;
  List.iter
    (fun (v : Verdict.t) ->
      Printf.bprintf d "\t%s^%s=%.17g" (Sherlock_trace.Opid.to_string v.op)
        (Verdict.role_name v.role) v.probability)
    verdicts;
  Buffer.add_char d '\n'

let add_inference b d key (app : Sherlock_corpus.App.t) (r : Orchestrator.result) =
  Buffer.add_string b app.id;
  List.iter
    (fun (rr : Orchestrator.round_result) ->
      Printf.bprintf b "|r%d:" rr.round;
      add_round b rr.stats.objective rr.verdicts;
      dump_round d (key @ [ Printf.sprintf "r%d" rr.round ]) rr.stats.objective
        rr.verdicts)
    r.rounds;
  match r.provenance with
  | None -> ()
  | Some p ->
    List.iter
      (fun (e : Sherlock_provenance.Provenance.verdict_evidence) ->
        Printf.bprintf b "|m:%s^%s=" e.v_op e.v_role;
        bits b e.v_margin)
      p.p_verdicts

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

(* The inference digest of [config] at seeds 1..N, dumped into [d] under
   [section]; with [~cold], each inference's final observations are
   also solved cold into it (dumped as section [cold]). *)
let digest ~seeds ~section d ?cold (config : Config.t) =
  let b = Buffer.create (1 lsl 16) in
  let apps = Sherlock_corpus.Registry.all () in
  for seed = 1 to seeds do
    let config = { config with seed } in
    List.iter
      (fun (app : Sherlock_corpus.App.t) ->
        let r = Orchestrator.infer ~config (Sherlock_corpus.App.subject app) in
        add_inference b d [ section; string_of_int seed; app.id ] app r;
        Option.iter
          (fun cold ->
            let verdicts, stats = Encoder.solve config r.observations in
            Buffer.add_string cold app.id;
            add_round cold stats.objective verdicts;
            dump_round d [ "cold"; string_of_int seed; app.id; "final" ]
              stats.objective verdicts)
          cold)
      apps
  done;
  hex b

(* --- comparing dumps --- *)

let lines text = List.filter (( <> ) "") (String.split_on_char '\n' text)

(* A dump line as its key and its [name, value] entries. *)
let parse_line line =
  let fields = String.split_on_char '\t' line in
  let key = List.filteri (fun i _ -> i < 4) fields in
  let entries =
    List.filteri (fun i _ -> i >= 4) fields
    |> List.map (fun e ->
           let k = String.rindex e '=' in
           ( String.sub e 0 k,
             float_of_string (String.sub e (k + 1) (String.length e - k - 1)) ))
  in
  (String.concat " " key, entries)

let tolerance = 1e-9

(* Absolute below magnitude 1, relative above; two nans (a degraded
   round's objective) are equal. *)
let difference a b =
  if Float.is_nan a && Float.is_nan b then 0.0
  else abs_float (a -. b) /. Float.max 1.0 (abs_float a)

(* Compares the dump text [mine] with the dump in [path]; prints the
   outcome and returns whether they agree. *)
let against path mine =
  let theirs = lines (In_channel.with_open_text path In_channel.input_all) in
  let mine = lines mine in
  let worst = ref 0.0 and worst_at = ref "none" and mismatches = ref 0 in
  let mismatch fmt =
    incr mismatches;
    Printf.printf ("against: " ^^ fmt ^^ "\n")
  in
  if List.length theirs <> List.length mine then
    mismatch "%d lines in %s, %d in this run" (List.length theirs) path
      (List.length mine)
  else
    List.iteri
      (fun i (a, b) ->
        match (parse_line a, parse_line b) with
        | exception (Not_found | Failure _) ->
          mismatch "%s:%d: malformed line" path (i + 1)
        | (ka, _), (kb, _) when ka <> kb -> mismatch "line %S against %S" ka kb
        | (ka, ea), (_, eb) when List.map fst ea <> List.map fst eb ->
          mismatch "%s: the verdict sets differ" ka
        | (ka, ea), (_, eb) ->
          List.iter2
            (fun (name, x) (_, y) ->
              let d = difference x y in
              if not (d <= !worst) then begin
                worst := d;
                worst_at := ka ^ " " ^ name
              end)
            ea eb)
      (List.combine theirs mine);
  Printf.printf "against: largest difference %.3g (%s)\n" !worst !worst_at;
  !mismatches = 0 && !worst <= tolerance

let add_side b side =
  List.iter
    (fun (op, n) -> Printf.bprintf b "%s*%d," (Opid.to_string op) n)
    (Windows.Side.bindings side)

(* Everything one extraction produced, in output order. *)
let extraction_text log =
  let b = Buffer.create (1 lsl 16) in
  let windows, races =
    Windows.extract ~near:400 ~cap:Windows.default_cap ~refine:true log
  in
  List.iter
    (fun (w : Windows.t) ->
      let c = w.coord in
      Printf.bprintf b "w %s %s %s|" (Opid.to_string (fst w.pair))
        (Opid.to_string (snd w.pair)) w.field;
      add_side b w.rel;
      Buffer.add_char b '|';
      add_side b w.acq;
      Printf.bprintf b "|%d,%d,%d,%d\n" c.first_time c.first_tid c.second_time
        c.second_tid)
    windows;
  List.iter
    (fun (r : Windows.race) ->
      Printf.bprintf b "r %s %s %s\n" (Opid.to_string (fst r.race_pair))
        (Opid.to_string (snd r.race_pair)) r.race_field)
    races;
  Buffer.contents b

let extract_digest () =
  let b = Buffer.create (1 lsl 20) in
  for seed = 1 to 3 do
    let log = Sherlock_trace.Synth.log ~seed ~addrs:256 ~threads:8 ~events:20_000 () in
    Buffer.add_string b (extraction_text log)
  done;
  hex b

let add_log b (log : Sherlock_trace.Log.t) =
  Array.iter
    (fun (e : Sherlock_trace.Event.t) ->
      Printf.bprintf b "%d %d %s %d %d\n" e.time e.tid (Opid.to_string e.op)
        e.target e.delayed_by)
    log.events;
  Buffer.add_string b "--\n"

(* The fixed delay plan: 100 ms before every write and 10 ms before the
   end of every system method (lock exits, signals, task completions). *)
let fixed_delay (op : Opid.t) =
  match op.kind with
  | Opid.Write -> 100_000
  | Opid.End when Opid.is_system op -> 10_000
  | _ -> 0

(* Digests of both encodings of [log] and of the events each decodes
   back to. *)
let add_codec b log =
  let module Trace_io = Sherlock_trace.Trace_io in
  List.iter
    (fun format ->
      let encoded = Trace_io.to_string ~format log in
      let decoded = Buffer.create 4096 in
      add_log decoded (Trace_io.of_string encoded);
      Buffer.add_string b (Digest.string encoded);
      Buffer.add_string b (Digest.string (Buffer.contents decoded)))
    [ Trace_io.Text; Trace_io.Binary ]

(* Every duration sample of [durs], method by method in key order: the
   key, then each sample's bits in the order the runs completed them. *)
let add_durations b durs =
  let module Durations = Sherlock_trace.Durations in
  List.iter
    (fun key ->
      Buffer.add_string b key;
      List.iter (Printf.bprintf b " %h") (List.rev (Durations.samples durs key));
      Buffer.add_char b '\n')
    (List.sort String.compare (Durations.methods durs))

let log_codec_and_duration_digests () =
  let module Runtime = Sherlock_sim.Runtime in
  let b = Buffer.create (1 lsl 20) in
  let codec = Buffer.create (1 lsl 16) in
  let durations = Buffer.create (1 lsl 16) in
  let tests =
    List.concat_map
      (fun (app : Sherlock_corpus.App.t) ->
        List.map (fun (name, body) -> (app.id ^ "/" ^ name, body)) app.tests)
      (Sherlock_corpus.Registry.all ())
    @ [ ("stress", Sherlock_corpus.Workload.stress ~workers:6 ~iters:150) ]
  in
  List.iter
    (fun (name, body) ->
      let durs = Sherlock_trace.Durations.create () in
      for seed = 1 to 3 do
        List.iter
          (fun (plan, instrument) ->
            Printf.bprintf b "%s %d %s\n" name seed plan;
            match Runtime.run ~seed ~instrument body with
            | log ->
              add_log b log;
              add_codec codec log;
              Sherlock_trace.Durations.record_log durs log
            | exception e -> Printf.bprintf b "! %s\n" (Printexc.to_string e))
          [
            ("none", Runtime.tracing ());
            ("fixed", Runtime.tracing ~delay_before:fixed_delay ());
          ]
      done;
      Printf.bprintf durations "%s\n" name;
      add_durations durations durs)
    tests;
  (hex b, hex codec, hex durations)

let main () =
  let seeds = ref 30 and dump = ref "" and against_file = ref "" in
  Arg.parse
    [
      ("--seeds", Arg.Set_int seeds, "N  config seeds 1..N per app (default 30)");
      ("--dump", Arg.Set_string dump, "FILE  write the hashed values as text");
      ( "--against",
        Arg.Set_string against_file,
        "FILE  compare them with a dump to 1e-9; exit 1 if they differ" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "verdict_digest [--seeds N] [--dump FILE] [--against FILE]";
  let base = Config.default in
  let cold = Buffer.create (1 lsl 16) in
  let d = Buffer.create (1 lsl 16) in
  let warm = digest ~seeds:!seeds ~section:"warm" d ~cold base in
  Printf.printf "%-10s %s\n%!" "warm" warm;
  Printf.printf "%-10s %s\n%!" "cold" (hex cold);
  Printf.printf "%-10s %s\n%!" "provenance"
    (digest ~seeds:!seeds ~section:"provenance" d { base with provenance = true });
  if !dump <> "" then
    Out_channel.with_open_text !dump (fun oc -> Buffer.output_buffer oc d);
  let agree = !against_file = "" || against !against_file (Buffer.contents d) in
  Printf.printf "%-10s %s\n%!" "extract" (extract_digest ());
  let log, codec, durations = log_codec_and_duration_digests () in
  Printf.printf "%-10s %s\n%!" "log" log;
  Printf.printf "%-10s %s\n%!" "codec" codec;
  Printf.printf "%-10s %s\n%!" "durations" durations;
  Printf.printf "(%d seeds x %d apps, %d rounds each)\n" !seeds
    (List.length (Sherlock_corpus.Registry.all ()))
    base.rounds;
  if not agree then exit 1
