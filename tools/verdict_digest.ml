(* Bitwise fingerprint of corpus inference.

   For each solver configuration — warm-started (the default), one-shot
   (no warm start), and warm with provenance capture — runs the full
   multi-round inference of every corpus app at config seeds 1..N and
   hashes every round's verdicts, the exact bits of their probabilities,
   and the exact bits of the round's LP objective; the provenance
   configuration also hashes each final verdict's confidence margin.
   Two builds that print the same three lines made the same decisions
   with the same floating-point values everywhere.

     dune exec tools/verdict_digest.exe -- [--seeds N]   (default 30) *)

open Sherlock_core

let bits b f = Buffer.add_string b (Int64.to_string (Int64.bits_of_float f))

let add_inference b (app : Sherlock_corpus.App.t) (r : Orchestrator.result) =
  Buffer.add_string b app.id;
  List.iter
    (fun (rr : Orchestrator.round_result) ->
      Printf.bprintf b "|r%d:" rr.round;
      bits b rr.stats.objective;
      List.iter
        (fun (v : Verdict.t) ->
          Printf.bprintf b ";%s^%s=" (Sherlock_trace.Opid.to_string v.op)
            (Verdict.role_name v.role);
          bits b v.probability)
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

let digest ~seeds (config : Config.t) =
  let b = Buffer.create (1 lsl 16) in
  let apps = Sherlock_corpus.Registry.all () in
  for seed = 1 to seeds do
    let config = { config with seed } in
    List.iter
      (fun app ->
        add_inference b app
          (Orchestrator.infer ~config (Sherlock_corpus.App.subject app)))
      apps
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  let seeds = ref 30 in
  Arg.parse
    [ ("--seeds", Arg.Set_int seeds, "N  config seeds 1..N per app (default 30)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "verdict_digest [--seeds N]";
  let base = { Config.default with parallelism = 1 } in
  List.iter
    (fun (name, config) ->
      Printf.printf "%-10s %s\n%!" name (digest ~seeds:!seeds config))
    [
      ("warm", base);
      ("one-shot", { base with use_warm_start = false });
      ("provenance", { base with provenance = true });
    ];
  Printf.printf "(%d seeds x %d apps, %d rounds each)\n" !seeds
    (List.length (Sherlock_corpus.Registry.all ()))
    base.rounds
