(* Tests for the benchmark corpus: every application's unit tests must run
   to completion in the simulator (assertions inside them check their own
   functional behaviour), traces must be non-trivial, and inference on
   each app must reach paper-shaped quality levels. *)

open Sherlock_core
open Sherlock_corpus
open Sherlock_sim

let check = Alcotest.check

let apps = Registry.all ()

let test_registry_complete () =
  check Alcotest.int "eight applications" 8 (List.length apps);
  List.iteri
    (fun i (a : App.t) ->
      check Alcotest.string "ids in order" (Printf.sprintf "App-%d" (i + 1)) a.id)
    apps

let test_registry_find () =
  check Alcotest.string "by id" "RestSharp" (Registry.find "App-6").name;
  check Alcotest.string "by name" "App-6" (Registry.find "restsharp").id;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.find "nope"))

let test_metadata_sane () =
  List.iter
    (fun (a : App.t) ->
      check Alcotest.bool (a.id ^ " has tests") true (List.length a.tests > 0);
      check Alcotest.bool (a.id ^ " has truth") true
        (List.length a.truth.syncs > 0);
      check Alcotest.bool (a.id ^ " loc positive") true (a.loc > 0))
    apps

(* Every unit test must complete under several seeds without deadlock or
   assertion failure — the corpus is also a stress test of the simulator. *)
let test_all_tests_run () =
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun (name, body) ->
          List.iter
            (fun seed ->
              try ignore (Runtime.run ~seed ~instrument:(Runtime.tracing ()) body)
              with e ->
                Alcotest.failf "%s/%s seed %d raised %s" a.id name seed
                  (Printexc.to_string e))
            [ 1; 7; 1234 ])
        a.tests)
    apps

let test_traces_nontrivial () =
  List.iter
    (fun (a : App.t) ->
      let logs = Orchestrator.run_test_logs (App.subject a) in
      List.iter
        (fun (log : Sherlock_trace.Log.t) ->
          check Alcotest.bool (a.id ^ " events") true (Sherlock_trace.Log.length log > 5);
          check Alcotest.bool (a.id ^ " multithreaded") true (log.threads >= 2))
        logs)
    apps

let test_workload_helpers () =
  ignore
    (Runtime.run (fun () ->
         let c = Heap.cell ~cls:"W.C" ~field:"x" 3 in
         check Alcotest.int "poll returns value" 3 (Workload.poll c 4);
         Workload.chores ~cls:"W.C" 3;
         Heap.poke c 9;
         Workload.await_untraced c (fun v -> v = 9)))

let test_chores_are_low_variance () =
  let log =
    Runtime.run ~instrument:(Runtime.tracing ()) (fun () ->
        Workload.chores ~cls:"W.C" 8)
  in
  let d = Sherlock_trace.Durations.create () in
  Sherlock_trace.Durations.record_log d log;
  let cv = Sherlock_trace.Durations.cv d "W.C::FormatValue" in
  check Alcotest.bool "near constant" true (cv < 0.5)

(* Inference quality gates, intentionally loose: the exact counts are
   recorded in EXPERIMENTS.md; these guard against wholesale regressions. *)
let infer_app (a : App.t) =
  let result = Orchestrator.infer (App.subject a) in
  Report.classify a.truth result.final

let test_inference_quality () =
  let total_inferred = ref 0 and total_correct = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let r = infer_app a in
      total_inferred := !total_inferred + Report.num_inferred r;
      total_correct := !total_correct + Report.num_correct r;
      check Alcotest.bool (a.id ^ " infers something") true (Report.num_inferred r > 3);
      (* Data-racy and instrumentation-error misclassifications are part of
         the corpus design (paper Table 2); plain false positives must not
         dominate the true synchronizations. *)
      check Alcotest.bool (a.id ^ " correct dominates plain FPs") true
        (Report.num_correct r >= Report.count r Report.Not_sync))
    apps;
  let precision = float !total_correct /. float !total_inferred in
  check Alcotest.bool "overall precision ~paper" true (precision >= 0.6);
  check Alcotest.bool "overall scale" true (!total_correct >= 60)

let test_designed_misclassifications () =
  (* App-1 carries the corpus's instrumentation-error design; App-1/7 carry
     data races; App-5 the Dispose misses. *)
  let r1 = infer_app (Registry.find "App-1") in
  check Alcotest.bool "App-1 data-racy" true (Report.count r1 Report.Data_racy >= 1);
  let r5 = infer_app (Registry.find "App-5") in
  let dispose_misses =
    List.filter
      (fun (e : Ground_truth.entry) -> e.category = Ground_truth.Dispose)
      r5.missed
  in
  check Alcotest.bool "App-5 dispose misses" true (List.length dispose_misses >= 2)

let test_racy_apps_declare_races () =
  List.iter
    (fun id ->
      let a = Registry.find id in
      check Alcotest.bool (id ^ " declares races") true
        (List.length a.truth.racy_fields > 0))
    [ "App-1"; "App-3"; "App-5"; "App-6"; "App-7" ]

let test_unsafe_api_flags () =
  check Alcotest.bool "App-6 unsafe" true (Registry.find "App-6").uses_unsafe_apis;
  check Alcotest.bool "App-7 unsafe" true (Registry.find "App-7").uses_unsafe_apis;
  check Alcotest.bool "App-2 safe" false (Registry.find "App-2").uses_unsafe_apis

(* Warm starts are a pure optimization: after every round k, each app's
   warm-started verdicts must equal a cold solve (no encoder state, so
   an empty basis) of the same observations, down to probabilities.
   Compared in printed form — structural equality would be fooled by
   last-bit float differences that the renderer rounds away. *)
let show_verdicts vs =
  String.concat ";" (List.map (fun v -> Format.asprintf "%a" Verdict.pp v) vs)

(* For k = 1..3: the inference of [{config with rounds = k}], whose
   last round is round k of the default inference, and the cold solve
   of its final observations. *)
let warm_and_cold (a : App.t) =
  List.map
    (fun k ->
      let config = { Config.default with rounds = k } in
      let r = Orchestrator.infer ~config (App.subject a) in
      (k, r, Encoder.solve config r.observations))
    [ 1; 2; 3 ]

let test_lp_paths_equivalent () =
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun (k, (r : Orchestrator.result), (cold, _)) ->
          check Alcotest.string
            (Printf.sprintf "%s round %d warm = cold" a.id k)
            (show_verdicts cold) (show_verdicts r.final))
        (warm_and_cold a))
    apps

(* Warm starts reuse bases.  Round 1 is a cold solve either way, so its
   pivots must match the cold solve's exactly; from round 2 on, where
   warm starts apply, they pivot strictly less on App-1 and at most half
   as much over the whole corpus (1,210 warm against 2,630 cold at the
   default seed, on top of 1,114 for round 1). *)
let test_warm_start_saves_pivots () =
  (* Per app: round-1 warm and cold pivots, then rounds 2-3 warm pivots,
     bases reused, and cold pivots. *)
  let pivots (a : App.t) =
    let runs = warm_and_cold a in
    let _, (full : Orchestrator.result), _ = List.nth runs 2 in
    let warm k = (List.nth full.rounds (k - 1)).stats.lp in
    let cold k =
      let _, _, (_, (stats : Encoder.solve_stats)) = List.nth runs (k - 1) in
      stats.lp.lp_pivots
    in
    ( (warm 1).lp_pivots,
      cold 1,
      (warm 2).lp_pivots + (warm 3).lp_pivots,
      (warm 2).lp_pivots_saved + (warm 3).lp_pivots_saved,
      cold 2 + cold 3 )
  in
  let _, _, warm, saved, cold = pivots (Registry.find "App-1") in
  check Alcotest.bool
    (Printf.sprintf "warm pivots %d fewer than cold %d" warm cold)
    true (warm < cold);
  check Alcotest.bool "bases reused" true (saved > 0);
  let w1, c1, warm, _, cold =
    List.fold_left
      (fun (w1, c1, w, s, c) a ->
        let w1', c1', w', s', c' = pivots a in
        (w1 + w1', c1 + c1', w + w', s + s', c + c'))
      (0, 0, 0, 0, 0) apps
  in
  check Alcotest.int "round 1 is the cold solve" c1 w1;
  check Alcotest.bool
    (Printf.sprintf "corpus warm pivots %d at most half of cold %d" warm cold)
    true
    (2 * warm <= cold)

(* Every corpus test log saved to disk and loaded back, in either trace
   format, must solve to the verdicts of the in-memory log. *)
let test_verdicts_survive_trace_files () =
  let module Trace_io = Sherlock_trace.Trace_io in
  let via format log =
    let file = Filename.temp_file "sherlock_corpus" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Trace_io.save ~format log file;
        Trace_io.load file)
  in
  List.iter
    (fun (a : App.t) ->
      let logs = Orchestrator.run_test_logs (App.subject a) in
      let solve load =
        let obs = Observations.create () in
        List.iter
          (fun log ->
            Observations.add_log obs ~near:Config.default.near
              ~cap:Config.default.window_cap ~refine:Config.default.use_refinement
              (load log))
          logs;
        show_verdicts (fst (Encoder.solve Config.default obs))
      in
      let direct = solve Fun.id in
      check Alcotest.string (a.id ^ " via text") direct (solve (via Trace_io.Text));
      check Alcotest.string (a.id ^ " via binary") direct (solve (via Trace_io.Binary)))
    apps

(* The live metrics plane (registry on, runtime gauges, a snapshot ticker
   rewriting an OpenMetrics file, as `run --metrics-out` wires it) must
   not move a verdict, and the file it leaves must parse. *)
let test_verdicts_with_stats_plane () =
  let module Tm = Sherlock_telemetry.Metrics in
  let module Tsnap = Sherlock_telemetry.Snapshot in
  let module Om = Sherlock_telemetry.Openmetrics in
  let corpus () =
    List.map
      (fun (a : App.t) -> show_verdicts (Orchestrator.infer (App.subject a)).final)
      apps
  in
  let off = corpus () in
  let out = Filename.temp_file "sherlock_corpus" ".om" in
  Tm.set_enabled true;
  Tsnap.install_runtime_gauges ();
  let ring =
    Tsnap.create ~on_snapshot:(fun p -> Om.write_atomic out (Om.of_point p)) ()
  in
  Tsnap.install ring;
  Tsnap.start_ticker ~interval_ms:10 ();
  let on =
    Fun.protect
      ~finally:(fun () ->
        Tsnap.stop_ticker ();
        Tsnap.uninstall ();
        Tm.set_enabled false;
        Tm.reset Tm.default)
      corpus
  in
  check Alcotest.(list string) "verdicts identical" off on;
  check Alcotest.bool "snapshots taken" true (Tsnap.length ring > 0);
  (match Om.parse_file out with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "exported file does not parse: %s" msg);
  Sys.remove out

(* The corpus under a fault plan that crashes, hangs, and spuriously wakes
   threads: every app completes every round, every failed attempt is in
   the run reports, and an app the plan never touched keeps the verdicts
   of the fault-free run exactly. *)
let test_corpus_survives_fault_plan () =
  let fault_plan =
    match
      Fault.of_specs [ "crash:tid=3,op=4"; "hang:tid=1,op=35"; "wakeup:tid=1,op=75" ]
    with
    | Ok plan -> plan
    | Error msg -> Alcotest.fail msg
  in
  let config = { Config.default with fault_plan; retries = 1 } in
  let crashes = ref 0 and hangs = ref 0 and untouched = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let r = Orchestrator.infer ~config (App.subject a) in
      check Alcotest.int (a.id ^ " rounds") config.rounds (List.length r.rounds);
      let injected = ref 0 in
      List.iter
        (fun (round : Orchestrator.round_result) ->
          List.iter
            (fun (rep : Orchestrator.run_report) ->
              injected := !injected + rep.injected;
              check Alcotest.int
                (Printf.sprintf "%s round %d %s: one failure per failed attempt" a.id
                   round.round rep.test_name)
                (rep.attempts - if rep.completed then 1 else 0)
                (List.length rep.failures);
              List.iter
                (function
                  | Orchestrator.Crashed _ -> incr crashes
                  | Orchestrator.Deadlocked _ | Orchestrator.Stalled _ -> incr hangs)
                rep.failures)
            round.run_reports)
        r.rounds;
      if !injected = 0 then begin
        incr untouched;
        let same (v1 : Verdict.t) (v2 : Verdict.t) =
          Verdict.compare v1 v2 = 0
          && Int64.bits_of_float v1.probability = Int64.bits_of_float v2.probability
        in
        check Alcotest.bool (a.id ^ " untouched app keeps its verdicts") true
          (List.equal same (Orchestrator.infer (App.subject a)).final r.final)
      end)
    apps;
  check Alcotest.bool "crashes fired" true (!crashes > 0);
  check Alcotest.bool "hangs fired" true (!hangs > 0);
  check Alcotest.bool "some app untouched" true (!untouched > 0)

let () =
  Alcotest.run "corpus"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "metadata" `Quick test_metadata_sane;
        ] );
      ( "execution",
        [
          Alcotest.test_case "all tests run (3 seeds)" `Slow test_all_tests_run;
          Alcotest.test_case "traces nontrivial" `Quick test_traces_nontrivial;
          Alcotest.test_case "workload helpers" `Quick test_workload_helpers;
          Alcotest.test_case "chores low variance" `Quick test_chores_are_low_variance;
        ] );
      ( "inference",
        [
          Alcotest.test_case "quality gates" `Slow test_inference_quality;
          Alcotest.test_case "designed misclassifications" `Slow
            test_designed_misclassifications;
          Alcotest.test_case "racy declarations" `Quick test_racy_apps_declare_races;
          Alcotest.test_case "unsafe flags" `Quick test_unsafe_api_flags;
        ] );
      ( "lp-equivalence",
        [
          Alcotest.test_case "warm/cold verdicts identical" `Slow
            test_lp_paths_equivalent;
          Alcotest.test_case "warm starts save pivots" `Slow
            test_warm_start_saves_pivots;
        ] );
      ( "same-verdicts",
        [
          Alcotest.test_case "through text and binary trace files" `Slow
            test_verdicts_survive_trace_files;
          Alcotest.test_case "with the stats plane on" `Slow
            test_verdicts_with_stats_plane;
          Alcotest.test_case "under a fault plan" `Slow test_corpus_survives_fault_plan;
        ] );
    ]
