(* The benchmark's workloads.  Each one builds its inputs from the seed
   in [setup], then runs numbered items of one kind: an inference, an
   extraction, or a trace-file round trip.  Every item has two
   implementations:

   - [untraced] goes through the public entry points
     ([Orchestrator.infer], [Trace_io], [Observations]) inside a single
     "item" span, which is all the timing the end-to-end metrics need;
   - [traced] makes the same calls layer by layer, as the orchestrator's
     sequential path does, with a span and counts around each call.

   Both return an [outcome] whose [digest] must agree bit for bit. *)

open Sherlock_core
open Sherlock_corpus
module Log = Sherlock_trace.Log
module Opid = Sherlock_trace.Opid
module Trace_io = Sherlock_trace.Trace_io
module Runtime = Sherlock_sim.Runtime
module Tm = Sherlock_telemetry.Metrics

type size = Full | Smoke

type outcome = {
  events : int;  (* events the item traced, ingested, or extracted *)
  failures : int;
      (* failed run attempts + degraded LP rounds + round-trip mismatches *)
  mismatches : int;  (* known-answer violations *)
  digest : string;  (* the item's verdicts, or its extraction counters *)
  correct : int;  (* verdicts scored correct (corpus only) *)
  inferred : int;  (* verdicts scored (corpus only) *)
}

let outcome ?(failures = 0) ?(mismatches = 0) ?(correct = 0) ?(inferred = 0)
    ~events digest =
  { events; failures; mismatches; digest; correct; inferred }

type 'a spec = {
  setup : seed:int -> 'a * int;  (* inputs, known-answer mismatches *)
  items : seconds:int -> int;
  input : int -> int;  (* which input item i runs on; equal inputs, equal digests *)
  untraced : Layers.t -> 'a -> int -> outcome;
  traced : Layers.t -> 'a -> int -> outcome;
  replays : int;  (* items an untraced run re-checks through [traced] *)
}

type t = W : string * 'a spec -> t

(* The sequential pipeline: tests one at a time, extraction on the
   calling domain, no fault plan.  It measures the program, not the
   scheduler, and stays within a two-core host. *)
let config =
  {
    Config.default with
    parallelism = 1;
    extract_jobs = 1;
    fault_plan = Sherlock_sim.Fault.empty;
  }

(* [n] items per requested second, at least one. *)
let per_second n ~seconds = max 1 (int_of_float (Float.round (float seconds *. n)))

(* Verdicts with their probabilities' exact bits. *)
let digest_verdicts verdicts =
  Digest.string
    (String.concat ";"
       (List.map
          (fun (v : Verdict.t) ->
            Printf.sprintf "%s/%s/%h" (Opid.to_string v.op)
              (Verdict.role_name v.role) v.probability)
          verdicts))

(* --- Layer-by-layer inference ------------------------------------------ *)

let add_lp rc (s : Encoder.solve_stats) =
  let n name v = Layers.add rc name (float v) in
  n "encoder.calls" 1;
  n "encoder.vars" s.num_vars;
  n "encoder.windows" s.num_windows;
  n "encoder.degraded" (Bool.to_int s.degraded);
  n "lp.solves" s.lp.lp_solves;
  n "lp.pivots" s.lp.lp_pivots;
  n "lp.warm_solves" s.lp.lp_warm_solves;
  n "lp.cold_restarts" s.lp.lp_cold_restarts;
  n "lp.refactors" s.lp.lp_refactors;
  n "lp.bound_rows_saved" s.lp.lp_bound_rows_saved;
  Layers.max rc "lp.eta_len_max" (float s.lp.lp_eta_len)

let add_extraction_counts rc obs =
  let m = Observations.metrics obs in
  let n name v = Layers.add rc name (float v) in
  n "windows.events" m.events;
  n "windows.pairs_considered" m.pairs_considered;
  n "windows.pairs_capped" m.pairs_capped;
  n "windows.emitted" m.windows;
  n "windows.races" m.races;
  n "observations.merged" (Observations.window_count obs);
  n "observations.candidates" (Observations.candidate_count obs);
  n "observations.racy_pairs" (Observations.race_count obs)

let c_hit = Tm.counter "windows.span_cache.hit"

let c_miss = Tm.counter "windows.span_cache.miss"

(* One extraction, split at the same seam as the orchestrator's: the pure
   per-log analysis, then the sequential merge. *)
let extract_into rc obs (config : Config.t) log =
  let hit0 = Tm.Counter.value c_hit and miss0 = Tm.Counter.value c_miss in
  let x =
    Layers.span rc "windows" (fun () ->
        Observations.extract_log ~near:config.near ~cap:config.window_cap
          ~refine:config.use_refinement log)
  in
  Layers.add rc "windows.calls" 1.0;
  Layers.add rc "windows.span_cache.hit" (float (Tm.Counter.value c_hit - hit0));
  Layers.add rc "windows.span_cache.miss" (float (Tm.Counter.value c_miss - miss0));
  Layers.span rc "observations" (fun () -> Observations.add_extraction obs x)

(* [Orchestrator.infer]'s sequential path, one public call per layer:
   simulate each test under the current delay plan (retrying a failed run
   with the orchestrator's reseed), extract and merge, solve warm from the
   previous round, then plan the next round's delays. *)
let replay rc (config : Config.t) (subject : Orchestrator.subject) =
  let obs = Observations.create () in
  let state = Encoder.create_state () in
  let plan = ref Perturber.empty and verdicts = ref [] in
  let failures = ref 0 in
  let simulate ~round ~test_index body =
    let rec attempt a =
      let seed = Orchestrator.test_seed ~base:config.seed ~round ~test_index in
      let seed = if a = 0 then seed else seed lxor (a * 0x9e3779b9) in
      let delay_before = Perturber.delay_before !plan in
      match
        Layers.span rc "sim" (fun () ->
            Runtime.run ~seed
              ~instrument:(Runtime.tracing ~delay_before ())
              ~fault:config.fault_plan ~max_steps:config.max_steps body)
      with
      | log ->
        Layers.add rc "sim.calls" 1.0;
        Layers.add rc "sim.events" (float (Log.length log));
        Some log
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception _ ->
        Layers.add rc "sim.calls" 1.0;
        Layers.add rc "sim.failed" 1.0;
        incr failures;
        if a < config.retries then attempt (a + 1) else None
    in
    attempt 0
  in
  for round = 1 to config.rounds do
    Layers.span rc "round" (fun () ->
        List.iteri
          (fun test_index (_name, body) ->
            match simulate ~round ~test_index body with
            | Some log -> extract_into rc obs config log
            | None -> ())
          subject.Orchestrator.tests;
        let v, stats =
          Layers.span rc "encoder" (fun () ->
              Encoder.solve ~state ~previous:!verdicts config obs)
        in
        add_lp rc stats;
        if stats.degraded then incr failures;
        verdicts := v;
        plan :=
          Layers.span rc "perturber" (fun () ->
              Perturber.of_verdicts ~delay_us:config.delay_us v);
        Layers.add rc "perturber.delayed_ops" (float (Perturber.size !plan)))
  done;
  (!verdicts, !failures, obs)

let infer (config : Config.t) subject =
  let r = Orchestrator.infer ~config subject in
  let failures =
    List.fold_left
      (fun acc (rr : Orchestrator.round_result) ->
        acc + Orchestrator.failed_runs rr.run_reports + Bool.to_int rr.stats.degraded)
      0 r.rounds
  in
  (r.final, failures, r.observations)

(* The traced counterpart of [infer], with the per-inference counts taken
   after the item span closes. *)
let traced_infer rc config subject =
  let (_, _, obs) as r = Layers.span rc "item" (fun () -> replay rc config subject) in
  add_extraction_counts rc obs;
  r

let events obs = (Observations.metrics obs).events

(* --- corpus -------------------------------------------------------------- *)

(* Table 2 at the paper configuration (seed 42): correct (unique),
   data-racy, instrumentation errors, not-sync, out of 166 verdicts. *)
let table2_expected = (106, 91, 14, 6, 40)

module Sync_set = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let table2 apps =
  let config = { config with seed = 42 } in
  let unique = ref Sync_set.empty in
  let correct = ref 0 and racy = ref 0 and instr = ref 0 and not_sync = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let r =
        Report.classify a.truth (Orchestrator.infer ~config (App.subject a)).final
      in
      correct := !correct + Report.num_correct r;
      racy := !racy + Report.count r Report.Data_racy;
      instr := !instr + Report.count r Report.Instr_error;
      not_sync := !not_sync + Report.count r Report.Not_sync;
      List.iter
        (fun ((v : Verdict.t), cls) ->
          match cls with
          | Report.Correct _ ->
            unique := Sync_set.add (Opid.to_string v.op, Verdict.role_name v.role) !unique
          | Report.Data_racy | Report.Instr_error | Report.Not_sync -> ())
        r.classified)
    apps;
  (!correct, Sync_set.cardinal !unique, !racy, !instr, !not_sync)

(* Item i infers app (i mod 8) at config seed S + i / 8, so a run covers
   whole sweeps of the corpus: LP-bound (the encoder is most of the CPU)
   with tiny logs. *)
let corpus =
  let apps = Array.of_list (Registry.all ()) in
  let napps = Array.length apps in
  let item_config seed i = { config with seed = seed + (i / napps) } in
  let score (a : App.t) verdicts =
    let r = Report.classify a.truth verdicts in
    (Report.num_correct r, Report.num_inferred r)
  in
  {
    setup =
      (fun ~seed ->
        let subjects = Array.map App.subject apps in
        let got = table2 (Array.to_list apps) in
        ((seed, subjects), if got = table2_expected then 0 else 1));
    items = (fun ~seconds -> napps * per_second 10.0 ~seconds);
    input = Fun.id;
    untraced =
      (fun rc (seed, subjects) i ->
        let verdicts, failures, obs =
          Layers.span rc "item" (fun () ->
              infer (item_config seed i) subjects.(i mod napps))
        in
        let correct, inferred = score apps.(i mod napps) verdicts in
        outcome ~failures ~correct ~inferred ~events:(events obs)
          (digest_verdicts verdicts));
    traced =
      (fun rc (seed, subjects) i ->
        let verdicts, failures, obs =
          traced_infer rc (item_config seed i) subjects.(i mod napps)
        in
        outcome ~failures ~events:(events obs) (digest_verdicts verdicts));
    replays = napps;
  }

(* --- stress -------------------------------------------------------------- *)

(* Workers hammering lock-protected fields plus unprotected flag traffic:
   one test whose log is far larger than any corpus test's, with a small
   LP that barely changes between seeds.  The same program as the stress
   log of bench/main.ml, which is an executable and cannot be linked. *)
let stress_program ~workers ~iters () =
  let open Sherlock_sim in
  let cls = "Stress.Data" in
  let fields =
    Array.init 8 (fun i -> Heap.cell ~cls ~field:(Printf.sprintf "f%d" i) 0)
  in
  let flag = Heap.cell ~cls ~field:"flag" 0 in
  let lock = Monitor.create () in
  let threads =
    List.init workers (fun w ->
        Threadlib.create ~delegate:(cls, Printf.sprintf "Worker%d" w) (fun () ->
            for i = 1 to iters do
              let f = (i + w) mod Array.length fields in
              Monitor.with_lock lock (fun () ->
                  let v = Heap.read fields.(f) in
                  Heap.write fields.(f) (v + 1));
              if i mod 7 = 0 then Heap.write flag i else ignore (Heap.read flag)
            done))
  in
  List.iter Threadlib.start threads;
  List.iter Threadlib.join threads

(* Every seed infers the lock's exit as a release. *)
let releases_monitor_exit verdicts =
  List.exists
    (fun (v : Verdict.t) ->
      v.role = Verdict.Release
      && Opid.to_string v.op = "System.Threading.Monitor::Exit-End")
    verdicts

(* Item i infers the stress program at config seed S + i: sim-bound, with
   extraction second and a small, steady LP. *)
let stress size =
  let iters = match size with Full -> 3000 | Smoke -> 150 in
  let subject =
    {
      Orchestrator.subject_name = "stress";
      tests = [ ("stress", stress_program ~workers:6 ~iters) ];
    }
  in
  let check (verdicts, failures, obs) =
    outcome ~failures
      ~mismatches:(if releases_monitor_exit verdicts then 0 else 1)
      ~events:(events obs) (digest_verdicts verdicts)
  in
  {
    setup =
      (fun ~seed ->
        (* A warm-up inference at a fixed seed doubles as a known-answer
           check. *)
        let verdicts, _, _ = infer { config with seed = 42 } subject in
        (seed, if releases_monitor_exit verdicts then 0 else 1));
    items = per_second 1.5;
    input = Fun.id;
    untraced =
      (fun rc seed i ->
        check
          (Layers.span rc "item" (fun () -> infer { config with seed = seed + i } subject)));
    traced =
      (fun rc seed i -> check (traced_infer rc { config with seed = seed + i } subject));
    replays = 1;
  }

(* --- synth-200k ---------------------------------------------------------- *)

(* Extraction counters of one merged observation set. *)
let digest_extraction obs =
  let m = Observations.metrics obs in
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d" m.events m.pairs_considered
    m.pairs_capped m.windows m.races
    (Observations.window_count obs)
    (Observations.race_count obs)

(* Synthetic logs of 200k events over 2048 addresses and 16 threads.
   [near] keeps the window-to-clock-span ratio of a 1M-event log at
   near = 20 000 (the clock advances ~1.1 units per event), so each
   window covers the same share of the log at a fifth of the memory.
   Item i extracts log (i mod 3) into fresh observations: it bypasses the
   simulator and the LP entirely. *)
let synth size =
  let events, near = match size with Full -> (200_000, 4_000) | Smoke -> (10_000, 200) in
  let config = { config with near } in
  let nlogs = 3 in
  {
    setup =
      (fun ~seed ->
        let logs =
          Array.init nlogs (fun k ->
              Sherlock_trace.Synth.log ~seed:(seed + k) ~addrs:2048 ~threads:16 ~events ())
        in
        (logs, 0));
    items = per_second 1.0;
    input = (fun i -> i mod nlogs);
    untraced =
      (fun rc logs i ->
        let log = logs.(i mod nlogs) in
        let obs = Observations.create () in
        Layers.span rc "item" (fun () ->
            Observations.add_log obs ~near ~cap:config.window_cap
              ~refine:config.use_refinement log);
        outcome ~events:(Log.length log) (digest_extraction obs));
    traced =
      (fun rc logs i ->
        let log = logs.(i mod nlogs) in
        let obs = Observations.create () in
        Layers.span rc "item" (fun () -> extract_into rc obs config log);
        add_extraction_counts rc obs;
        outcome ~events:(Log.length log) (digest_extraction obs));
    replays = 1;
  }

(* --- trace-files ------------------------------------------------------- *)

let same_log (a : Log.t) (b : Log.t) =
  a.duration = b.duration && a.threads = b.threads
  && Log.length a = Log.length b
  && Array.for_all2
       (fun (x : Sherlock_trace.Event.t) (y : Sherlock_trace.Event.t) ->
         Opid.equal x.op y.op && x.time = y.time && x.tid = y.tid
         && x.target = y.target && x.delayed_by = y.delayed_by)
       a.events b.events

let file_size path = (Unix.stat path).Unix.st_size

(* Stress logs simulated in setup.  Item i saves log (i mod 8) as text and
   as binary, loads both back, and solves the binary-loaded copy (the
   solve-trace path): it exercises the ingest layer, writes beside reads
   and text beside binary.  The round-trip equality check runs outside
   the item span. *)
let trace_files ~dir size =
  let iters, nlogs = match size with Full -> (1500, 8) | Smoke -> (100, 2) in
  let text_path = Filename.concat dir "item.trace" in
  let bin_path = Filename.concat dir "item.btrace" in
  let solve obs = fst (Encoder.solve config obs) in
  (* Round-trip failures and mismatches of item i: both loaded logs must
     equal the original, and the verdicts must equal those of solving the
     original in memory (computed once per log, outside the item span). *)
  let verify (logs, expected) i text binary digest =
    let k = i mod nlogs in
    let log = logs.(k) in
    if expected.(k) = None then begin
      let obs = Observations.create () in
      Observations.add_log obs ~near:config.near ~cap:config.window_cap
        ~refine:config.use_refinement log;
      expected.(k) <- Some (digest_verdicts (solve obs))
    end;
    outcome
      ~failures:
        (Bool.to_int (not (same_log log text)) + Bool.to_int (not (same_log log binary)))
      ~mismatches:(Bool.to_int (expected.(k) <> Some digest))
      ~events:(Log.length log) digest
  in
  {
    setup =
      (fun ~seed ->
        let logs =
          Array.init nlogs (fun k ->
              Runtime.run ~seed:(seed + k) ~instrument:(Runtime.tracing ())
                (stress_program ~workers:6 ~iters))
        in
        ((logs, Array.make nlogs None), 0));
    items = per_second 6.0;
    input = (fun i -> i mod nlogs);
    untraced =
      (fun rc ((logs, _) as x) i ->
        let log = logs.(i mod nlogs) in
        let text, binary, verdicts =
          Layers.span rc "item" (fun () ->
              Trace_io.save ~format:Trace_io.Text log text_path;
              Trace_io.save ~format:Trace_io.Binary log bin_path;
              let text = Trace_io.load text_path in
              let binary = Trace_io.load bin_path in
              let obs = Observations.create () in
              Observations.add_log obs ~near:config.near ~cap:config.window_cap
                ~refine:config.use_refinement binary;
              (text, binary, solve obs))
        in
        verify x i text binary (digest_verdicts verdicts));
    traced =
      (fun rc ((logs, _) as x) i ->
        let log = logs.(i mod nlogs) in
        let text, binary, obs, verdicts =
          Layers.span rc "item" (fun () ->
              Layers.span rc "trace_io.save_text" (fun () ->
                  Trace_io.save ~format:Trace_io.Text log text_path);
              Layers.span rc "trace_io.save_binary" (fun () ->
                  Trace_io.save ~format:Trace_io.Binary log bin_path);
              let text = Layers.span rc "trace_io.load_text" (fun () -> Trace_io.load text_path) in
              let binary =
                Layers.span rc "trace_io.load_binary" (fun () -> Trace_io.load bin_path)
              in
              let obs = Observations.create () in
              extract_into rc obs config binary;
              let verdicts, stats =
                Layers.span rc "encoder" (fun () -> Encoder.solve config obs)
              in
              add_lp rc stats;
              (text, binary, obs, verdicts))
        in
        add_extraction_counts rc obs;
        Layers.add rc "trace_io.events" (float (Log.length log));
        Layers.add rc "trace_io.text_bytes" (float (file_size text_path));
        Layers.add rc "trace_io.binary_bytes" (float (file_size bin_path));
        verify x i text binary (digest_verdicts verdicts));
    replays = 1;
  }

let all ~dir size =
  [
    W ("corpus", corpus);
    W ("stress", stress size);
    W ("synth-200k", synth size);
    W ("trace-files", trace_files ~dir size);
  ]
