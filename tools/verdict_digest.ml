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
   and every race of three synthetic 20k-event logs with refinement on,
   extracted sequentially and at [jobs = 2].  Verdicts only see merged
   windows through the LP, so this is the line that shows window
   contents are identical; the tool exits 1 if the two job counts
   disagree.

   A fifth line, [log], hashes the simulator's logs as the analyses see
   them: every event (time, tid, op, target, delay) in log order, for
   every test of every corpus app and for the lock-contention stress
   program (6 workers x 150 iterations), at simulator seeds 1..3, each
   run once without delays and once under a fixed delay plan.  It is the
   line that shows log construction orders events identically.

   A sixth line, [codec], hashes the trace codecs over the same logs:
   each log's text and binary encodings, and the events decoded back
   from each, so it shows both formats write and read identically.

     dune exec tools/verdict_digest.exe -- [--seeds N]   (default 30) *)

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

let add_inference b (app : Sherlock_corpus.App.t) (r : Orchestrator.result) =
  Buffer.add_string b app.id;
  List.iter
    (fun (rr : Orchestrator.round_result) ->
      Printf.bprintf b "|r%d:" rr.round;
      add_round b rr.stats.objective rr.verdicts)
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

(* The inference digest of [config] at seeds 1..N; with [~cold], each
   inference's final observations are also solved cold into it. *)
let digest ~seeds ?cold (config : Config.t) =
  let b = Buffer.create (1 lsl 16) in
  let apps = Sherlock_corpus.Registry.all () in
  for seed = 1 to seeds do
    let config = { config with seed } in
    List.iter
      (fun (app : Sherlock_corpus.App.t) ->
        let r = Orchestrator.infer ~config (Sherlock_corpus.App.subject app) in
        add_inference b app r;
        Option.iter
          (fun cold ->
            let verdicts, stats = Encoder.solve config r.observations in
            Buffer.add_string cold app.id;
            add_round cold stats.objective verdicts)
          cold)
      apps
  done;
  hex b

let add_side b side =
  List.iter
    (fun (op, n) -> Printf.bprintf b "%s*%d," (Opid.to_string op) n)
    (Windows.Side.bindings side)

(* Everything one extraction produced, in output order. *)
let extraction_text ~jobs log =
  let b = Buffer.create (1 lsl 16) in
  let windows, races =
    Windows.extract ~near:400 ~cap:Windows.default_cap ~refine:true ~jobs log
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
    let seq = extraction_text ~jobs:1 log in
    let par = extraction_text ~jobs:2 log in
    if seq <> par then begin
      Printf.eprintf
        "verdict_digest: seed %d: jobs=2 extraction differs from jobs=1\n" seed;
      exit 1
    end;
    Buffer.add_string b seq;
    Buffer.add_string b par
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

let log_and_codec_digests () =
  let module Runtime = Sherlock_sim.Runtime in
  let b = Buffer.create (1 lsl 20) in
  let codec = Buffer.create (1 lsl 16) in
  let tests =
    List.concat_map
      (fun (app : Sherlock_corpus.App.t) ->
        List.map (fun (name, body) -> (app.id ^ "/" ^ name, body)) app.tests)
      (Sherlock_corpus.Registry.all ())
    @ [ ("stress", Sherlock_corpus.Workload.stress ~workers:6 ~iters:150) ]
  in
  List.iter
    (fun (name, body) ->
      for seed = 1 to 3 do
        List.iter
          (fun (plan, instrument) ->
            Printf.bprintf b "%s %d %s\n" name seed plan;
            match Runtime.run ~seed ~instrument body with
            | log ->
              add_log b log;
              add_codec codec log
            | exception e -> Printf.bprintf b "! %s\n" (Printexc.to_string e))
          [
            ("none", Runtime.tracing ());
            ("fixed", Runtime.tracing ~delay_before:fixed_delay ());
          ]
      done)
    tests;
  (hex b, hex codec)

let () =
  let seeds = ref 30 in
  Arg.parse
    [ ("--seeds", Arg.Set_int seeds, "N  config seeds 1..N per app (default 30)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "verdict_digest [--seeds N]";
  let base = { Config.default with parallelism = 1 } in
  let cold = Buffer.create (1 lsl 16) in
  Printf.printf "%-10s %s\n%!" "warm" (digest ~seeds:!seeds ~cold base);
  Printf.printf "%-10s %s\n%!" "cold" (hex cold);
  Printf.printf "%-10s %s\n%!" "provenance"
    (digest ~seeds:!seeds { base with provenance = true });
  Printf.printf "%-10s %s\n%!" "extract" (extract_digest ());
  let log, codec = log_and_codec_digests () in
  Printf.printf "%-10s %s\n%!" "log" log;
  Printf.printf "%-10s %s\n%!" "codec" codec;
  Printf.printf "(%d seeds x %d apps, %d rounds each)\n" !seeds
    (List.length (Sherlock_corpus.Registry.all ()))
    base.rounds
