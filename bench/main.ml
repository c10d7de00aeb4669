(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) against the OCaml reproduction, plus a
   Bechamel microbenchmark suite for the moving parts.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table2  # one artifact
     dune exec bench/main.exe -- --list  # artifact names

   Absolute counts are smaller than the paper's (the corpus is a
   scaled-down synthetic analogue); EXPERIMENTS.md records the
   paper-vs-measured comparison and the shape criteria. *)

open Sherlock_core
open Sherlock_corpus
module Table = Sherlock_util.Table
module Opid = Sherlock_trace.Opid
module Detector = Sherlock_fasttrack.Detector
module Sync_model = Sherlock_fasttrack.Sync_model
module Tsvd = Sherlock_tsvd.Tsvd

let apps = Registry.all ()

(* Inference results are shared by several tables; memoize per config. *)
let infer_cache : (Config.t * string, Orchestrator.result) Hashtbl.t =
  Hashtbl.create 32

let infer ?(config = Config.default) (app : App.t) =
  let key = (config, app.id) in
  match Hashtbl.find_opt infer_cache key with
  | Some r -> r
  | None ->
    let r = Orchestrator.infer ~config (App.subject app) in
    Hashtbl.add infer_cache key r;
    r

let classify ?config (app : App.t) = Report.classify app.truth (infer ?config app).final

module Sync_set = Set.Make (struct
  type t = Opid.t * Verdict.role

  let compare (o1, r1) (o2, r2) =
    match Opid.compare o1 o2 with 0 -> compare r1 r2 | c -> c
end)

(* Unique synchronization counts across applications (the paper's
   parenthesized sums): verdicts deduplicated by (operation, role). *)
let unique_counts ?config () =
  let correct = ref Sync_set.empty and total = ref Sync_set.empty in
  List.iter
    (fun app ->
      let r = classify ?config app in
      List.iter
        (fun ((v : Verdict.t), cls) ->
          total := Sync_set.add (v.op, v.role) !total;
          match cls with
          | Report.Correct _ -> correct := Sync_set.add (v.op, v.role) !correct
          | Report.Data_racy | Report.Instr_error | Report.Not_sync -> ())
        r.classified)
    apps;
  (Sync_set.cardinal !correct, Sync_set.cardinal !total)

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: Applications in benchmarks"
      ~header:[ "ID"; "Name"; "LoC"; "#Stars"; "#Tests" ]
  in
  List.iter
    (fun (a : App.t) ->
      Table.add_row t
        [
          a.id; a.name;
          Printf.sprintf "%.1fK" (float a.loc /. 1000.0);
          string_of_int a.stars;
          string_of_int (List.length a.tests);
        ])
    apps;
  Table.print t

let table2 () =
  let t =
    Table.create ~title:"Table 2: SherLock inferred results after 3 rounds"
      ~header:[ "ID"; "Syncs"; "Data Racy"; "Instr. Errors"; "Not Sync" ]
  in
  let sums = Array.make 4 0 in
  List.iter
    (fun (a : App.t) ->
      let r = classify a in
      let row =
        [
          Report.num_correct r;
          Report.count r Report.Data_racy;
          Report.count r Report.Instr_error;
          Report.count r Report.Not_sync;
        ]
      in
      List.iteri (fun i v -> sums.(i) <- sums.(i) + v) row;
      Table.add_row t (a.id :: List.map string_of_int row))
    apps;
  Table.add_separator t;
  let unique, _ = unique_counts () in
  Table.add_row t
    [
      "Sum";
      Printf.sprintf "%d (%d)" sums.(0) unique;
      string_of_int sums.(1);
      string_of_int sums.(2);
      string_of_int sums.(3);
    ];
  Table.print t

let race_scores (a : App.t) model_of =
  let logs = Orchestrator.run_test_logs (App.subject a) in
  List.fold_left
    (fun (true_races, false_races) log ->
      let report = Detector.run (model_of log) log in
      match Detector.first_race report with
      | None -> (true_races, false_races)
      | Some r ->
        if Ground_truth.is_racy_field a.truth r.field then (true_races + 1, false_races)
        else (true_races, false_races + 1))
    (0, 0) logs

let table3 () =
  let t =
    Table.create
      ~title:
        "Table 3: SherLock vs manual annotation in race detection (first race per run)"
      ~header:
        [ "ID"; "True Manual_dr"; "True SherLock_dr"; "False Manual_dr";
          "False SherLock_dr" ]
  in
  let sums = Array.make 4 0 in
  List.iter
    (fun (a : App.t) ->
      let verdicts = (infer a).final in
      let mt, mf = race_scores a Sync_model.manual in
      let st, sf = race_scores a (fun _ -> Sync_model.inferred verdicts) in
      let row = [ mt; st; mf; sf ] in
      List.iteri (fun i v -> sums.(i) <- sums.(i) + v) row;
      Table.add_row t (a.id :: List.map string_of_int row))
    apps;
  Table.add_separator t;
  Table.add_row t ("Sum" :: Array.to_list (Array.map string_of_int sums));
  Table.print t

let table4 () =
  let causes =
    Ground_truth.[ Instr_error; Double_role; Dispose; Static_ctor; Other_cause ]
  in
  let idx = function
    | Ground_truth.Instr_error -> 0
    | Ground_truth.Double_role -> 1
    | Ground_truth.Dispose -> 2
    | Ground_truth.Static_ctor -> 3
    | Ground_truth.Other_cause -> 4
  in
  let false_sync = Array.make 5 0 in
  let missed_sync = Array.make 5 0 in
  let false_races = Array.make 5 0 in
  List.iter
    (fun (a : App.t) ->
      let r = classify a in
      List.iter
        (fun ((v : Verdict.t), cls) ->
          match cls with
          | Report.Correct _ | Report.Data_racy -> ()
          | Report.Instr_error | Report.Not_sync ->
            let c = Report.false_positive_cause a.truth v in
            false_sync.(idx c) <- false_sync.(idx c) + 1)
        r.classified;
      (* As in the paper (§5.5), uncategorized misses are only counted
         when they surface through a false data race; the categorized
         design cases (instrumentation, double role, dispose, statics)
         are counted directly. *)
      let other_missed_fields = Hashtbl.create 4 in
      List.iter
        (fun (e : Ground_truth.entry) ->
          if e.category <> Ground_truth.Other_cause then
            missed_sync.(idx e.category) <- missed_sync.(idx e.category) + 1)
        r.missed;
      (* SherLock_dr false races, attributed to the guard of the field. *)
      let verdicts = (infer a).final in
      let logs = Orchestrator.run_test_logs (App.subject a) in
      List.iter
        (fun log ->
          let report = Detector.run (Sync_model.inferred verdicts) log in
          List.iter
            (fun (race : Detector.race) ->
              if not (Ground_truth.is_racy_field a.truth race.field) then begin
                let c = Ground_truth.guard_cause a.truth race.field in
                false_races.(idx c) <- false_races.(idx c) + 1;
                if c = Ground_truth.Other_cause then
                  Hashtbl.replace other_missed_fields race.field ()
              end)
            report.races)
        logs;
      missed_sync.(idx Ground_truth.Other_cause) <-
        missed_sync.(idx Ground_truth.Other_cause)
        + Hashtbl.length other_missed_fields)
    apps;
  let t =
    Table.create ~title:"Table 4: Breakdown of false positives/negatives"
      ~header:[ ""; "#False Sync."; "#Missed Sync."; "#False Races" ]
  in
  List.iter
    (fun c ->
      let i = idx c in
      Table.add_row t
        [
          Ground_truth.cause_name c;
          string_of_int false_sync.(i);
          string_of_int missed_sync.(i);
          string_of_int false_races.(i);
        ])
    causes;
  Table.add_separator t;
  let sum a = Array.fold_left ( + ) 0 a in
  Table.add_row t
    [
      "Total"; string_of_int (sum false_sync); string_of_int (sum missed_sync);
      string_of_int (sum false_races);
    ];
  Table.print t

let table5 () =
  let variants =
    [
      ("SherLock", Config.default);
      ("w/o Mostly are Protected", { Config.default with use_protected = false });
      ("w/o Synchronizations are Rare", { Config.default with use_rare = false });
      ("w/o Acq-Time Varies", { Config.default with use_variation = false });
      ("w/o Mostly are Paired", { Config.default with use_paired = false });
      ("w/o Read-Acq & Write-Rel", { Config.default with use_role_property = false });
      ("w/o Single Role", { Config.default with use_single_role = false });
    ]
  in
  let t =
    Table.create ~title:"Table 5: Inference with or without certain hypothesis"
      ~header:[ ""; "#Correct"; "#Total"; "Precision" ]
  in
  List.iter
    (fun (name, config) ->
      let correct, total = unique_counts ~config () in
      let precision =
        if total = 0 then "n/a"
        else Printf.sprintf "%.0f%%" (100.0 *. float correct /. float total)
      in
      Table.add_row t [ name; string_of_int correct; string_of_int total; precision ])
    variants;
  Table.print t

let table6 () =
  let lambdas = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0; 5.0; 10.0; 50.0; 100.0 ] in
  let t =
    Table.create ~title:"Table 6: Sensitivity of lambda (unique sums, 3 rounds)"
      ~header:("lambda" :: List.map (Printf.sprintf "%g") lambdas)
  in
  let counts =
    List.map (fun lambda -> unique_counts ~config:{ Config.default with lambda } ())
      lambdas
  in
  Table.add_row t ("#correct" :: List.map (fun (c, _) -> string_of_int c) counts);
  Table.add_row t ("#total" :: List.map (fun (_, n) -> string_of_int n) counts);
  Table.print t

let table7 () =
  let nears = [ (10_000, "0.01s"); (1_000_000, "1s"); (100_000_000, "100s") ] in
  let t =
    Table.create ~title:"Table 7: Sensitivity of Near (unique sums, 3 rounds)"
      ~header:("Near" :: List.map snd nears)
  in
  let counts =
    List.map (fun (near, _) -> unique_counts ~config:{ Config.default with near } ())
      nears
  in
  Table.add_row t ("#correct" :: List.map (fun (c, _) -> string_of_int c) counts);
  Table.add_row t ("#total" :: List.map (fun (_, n) -> string_of_int n) counts);
  Table.print t

let figure4 () =
  let settings =
    [
      ("SherLock", Config.default);
      ("no delay injection", { Config.default with use_delays = false });
      ("no accumulation", { Config.default with accumulate = false });
      ("no race removal", { Config.default with use_race_removal = false });
      ("no window refinement", { Config.default with use_refinement = false });
    ]
  in
  let max_rounds = 6 in
  let t =
    Table.create
      ~title:
        "Figure 4: correctly inferred unique synchronizations per round,\n\
         under different Perturber and feedback settings"
      ~header:
        ("setting" :: List.init max_rounds (fun i -> Printf.sprintf "run %d" (i + 1)))
  in
  List.iter
    (fun (name, base) ->
      let config = { base with Config.rounds = max_rounds } in
      (* One inference run delivers the verdicts of every prefix round. *)
      let sets = Array.make max_rounds Sync_set.empty in
      List.iter
        (fun (a : App.t) ->
          let result = infer ~config a in
          List.iter
            (fun (r : Orchestrator.round_result) ->
              let report = Report.classify a.truth r.verdicts in
              List.iter
                (fun ((v : Verdict.t), cls) ->
                  match cls with
                  | Report.Correct _ ->
                    sets.(r.round - 1) <- Sync_set.add (v.op, v.role) sets.(r.round - 1)
                  | Report.Data_racy | Report.Instr_error | Report.Not_sync -> ())
                report.classified)
            result.rounds)
        apps;
      Table.add_row t
        (name :: Array.to_list (Array.map (fun s -> string_of_int (Sync_set.cardinal s)) sets)))
    settings;
  Table.print t

let tables8_9 () =
  print_endline "Tables 8/9: inferred synchronizations per application\n";
  List.iter
    (fun (a : App.t) ->
      Report.print_sites Format.std_formatter ~app:a.name (infer a).final a.truth;
      print_newline ())
    apps

let tsvd_enhance () =
  let t =
    Table.create
      ~title:"Section 5.6: TSVD happens-before inference vs SherLock synchronizations"
      ~header:[ "ID"; "Conflicting pairs"; "TSVD HB pairs"; "SherLock-synced pairs" ]
  in
  let sums = Array.make 3 0 in
  List.iter
    (fun (a : App.t) ->
      if a.uses_unsafe_apis then begin
        let o = Tsvd.analyze (App.subject a) (infer a).final in
        let row =
          [
            List.length o.candidate_pairs; List.length o.tsvd_hb;
            List.length o.sherlock_hb;
          ]
        in
        List.iteri (fun i v -> sums.(i) <- sums.(i) + v) row;
        Table.add_row t (a.id :: List.map string_of_int row)
      end)
    apps;
  Table.add_separator t;
  Table.add_row t ("Sum" :: Array.to_list (Array.map string_of_int sums));
  Table.print t

let overhead () =
  (* Host wall-clock of the pipeline stages versus a bare run, over the
     full corpus (one round, same seeds). *)
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let run_all instrument =
    List.iter
      (fun (a : App.t) ->
        List.iteri
          (fun i (_, body) ->
            let seed =
              Orchestrator.test_seed ~base:Config.default.seed ~round:1 ~test_index:i
            in
            ignore (Sherlock_sim.Runtime.run ~seed ~instrument body))
          a.tests)
      apps
  in
  let bare = time (fun () -> run_all Sherlock_sim.Runtime.no_instrument) in
  let traced = time (fun () -> run_all (Sherlock_sim.Runtime.tracing ())) in
  let full =
    time (fun () ->
        List.iter
          (fun (a : App.t) ->
            ignore
              (Orchestrator.infer ~config:{ Config.default with rounds = 1 }
                 (App.subject a)))
          apps)
  in
  let three_rounds =
    time (fun () ->
        List.iter
          (fun (a : App.t) -> ignore (Orchestrator.infer (App.subject a)))
          apps)
  in
  let t =
    Table.create ~title:"Section 5.6: Overhead (host time over the full corpus)"
      ~header:[ "configuration"; "seconds"; "vs bare" ]
  in
  let pct x = Printf.sprintf "%+.0f%%" (100.0 *. ((x /. bare) -. 1.0)) in
  Table.add_row t [ "bare execution"; Printf.sprintf "%.3f" bare; "-" ];
  Table.add_row t [ "tracing"; Printf.sprintf "%.3f" traced; pct traced ];
  Table.add_row t
    [ "tracing + solving (1 round)"; Printf.sprintf "%.3f" full; pct full ];
  Table.add_row t
    [
      "3 rounds with delay injection"; Printf.sprintf "%.3f" three_rounds;
      pct (three_rounds /. 3.0) ^ " per round";
    ];
  Table.print t

(* Extension ablations: parameters the paper fixes without sweeping
   (window cap, verdict threshold, delay length) and the two documented
   follow-ups (soft Single-Role, probabilistic delay injection). *)
let ablation_extras () =
  let sweep title rows =
    let t = Table.create ~title ~header:[ "configuration"; "#Correct"; "#Total" ] in
    List.iter
      (fun (name, config) ->
        let correct, total = unique_counts ~config () in
        Table.add_row t [ name; string_of_int correct; string_of_int total ])
      rows;
    Table.print t
  in
  sweep "Extension: window cap per static location pair (paper fixes 15)"
    (List.map
       (fun cap ->
         (Printf.sprintf "cap = %d" cap, { Config.default with window_cap = cap }))
       [ 1; 5; 15; 50 ]);
  sweep "Extension: verdict probability threshold (paper reads variables 'assigned 1')"
    (List.map
       (fun threshold ->
         (Printf.sprintf "threshold = %.2f" threshold, { Config.default with threshold }))
       [ 0.5; 0.9; 0.99 ]);
  sweep "Extension: injected delay length (paper fixes 100 ms)"
    (List.map
       (fun delay_us ->
         (Printf.sprintf "delay = %d ms" (delay_us / 1000), { Config.default with delay_us }))
       [ 10_000; 100_000; 500_000 ]);
  sweep "Extension: Single-Role as a soft constraint (paper 5.5 future work)"
    [
      ("hard (default)", Config.default);
      ("soft", { Config.default with single_role_soft = true });
      ("off", { Config.default with use_single_role = false });
    ];
  sweep "Extension: probabilistic delay injection (paper footnote 1)"
    [
      ("p = 1.0 (default)", Config.default);
      ("p = 0.5", { Config.default with delay_probability = 0.5 });
      ("p = 0.2", { Config.default with delay_probability = 0.2 });
    ]

(* ------------------------------------------------------------------ *)

(* BENCH_trace.json is one top-level JSON object with one section per
   line, so independent artifacts (perf, robustness) can each rewrite
   their own keys while preserving the others from earlier runs. *)
let bench_json = "BENCH_trace.json"

let read_bench_sections () =
  match open_in bench_json with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line ->
        let line = String.trim line in
        let line =
          if String.length line > 0 && line.[String.length line - 1] = ',' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        if String.length line > 1 && line.[0] = '"' then
          match String.index_from_opt line 1 '"' with
          | Some q when q + 1 < String.length line && line.[q + 1] = ':' ->
            let key = String.sub line 1 (q - 1) in
            let value =
              String.trim (String.sub line (q + 2) (String.length line - q - 2))
            in
            go ((key, value) :: acc)
          | _ -> go acc
        else go acc
    in
    go []

let update_bench_sections updates =
  let keep =
    List.filter
      (fun (k, _) -> not (List.mem_assoc k updates))
      (read_bench_sections ())
  in
  let all = keep @ updates in
  let oc = open_out bench_json in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  %S: %s%s\n" k v
        (if i + 1 < List.length all then "," else ""))
    all;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" bench_json

(* Pull one numeric field out of a single-line JSON section value, e.g.
   [json_number value "events_per_sec"].  The sections are written by
   this file in a fixed flat shape, so a scan for ["key": <number>] is
   enough — no general JSON parser in the bench harness. *)
let json_number value key =
  let pat = Printf.sprintf "%S:" key in
  let plen = String.length pat and vlen = String.length value in
  let is_num = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec find i =
    if i + plen > vlen then None
    else if String.sub value i plen = pat then begin
      let j = ref (i + plen) in
      while !j < vlen && value.[!j] = ' ' do
        incr j
      done;
      let k = ref !j in
      while !k < vlen && is_num value.[!k] do
        incr k
      done;
      if !k > !j then float_of_string_opt (String.sub value !j (!k - !j))
      else None
    end
    else find (i + 1)
  in
  find 0

(* [Windows.extract] throughput at the seed commit (pre-index full-scan
   implementation), measured on this machine class with the identical
   workloads and averaging reps.  The perf target reports speedups
   against these. *)
let seed_stress_events_per_sec = 65_539.0

let seed_largest_events_per_sec = 371_502.0

let perf () =
  let module Log = Sherlock_trace.Log in
  (* Baselines: the previous run's events/s from BENCH_trace.json when
     present, so a local regression shows up against the last recorded
     run and not only against the (much slower) seed commit; first runs
     fall back to the seed constants. *)
  let prior = read_bench_sections () in
  let baseline_of section seed =
    match List.assoc_opt section prior with
    | None -> seed
    | Some v -> Option.value (json_number v "events_per_sec") ~default:seed
  in
  let stress_baseline = baseline_of "stress" seed_stress_events_per_sec in
  let largest_baseline =
    baseline_of "largest_corpus_log" seed_largest_events_per_sec
  in
  let time_extract ~reps log =
    ignore (Sherlock_trace.Windows.extract log) (* warmup *);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sherlock_trace.Windows.extract log)
    done;
    (Unix.gettimeofday () -. t0) /. float reps
  in
  let logs =
    List.concat_map
      (fun (a : App.t) ->
        List.map (fun l -> (a.id, l)) (Orchestrator.run_test_logs (App.subject a)))
      apps
  in
  let largest_id, largest =
    List.fold_left
      (fun (bi, bl) (i, l) ->
        if Log.length l > Log.length bl then (i, l) else (bi, bl))
      (List.hd logs) (List.tl logs)
  in
  let stress_log =
    Sherlock_sim.Runtime.run ~seed:7
      ~instrument:(Sherlock_sim.Runtime.tracing ())
      (Sherlock_corpus.Workload.stress ~workers:6 ~iters:400)
  in
  let largest_s = time_extract ~reps:50 largest in
  let stress_s = time_extract ~reps:10 stress_log in
  (* Telemetry overhead on the hot path: the same stress-log extraction
     with the metrics registry enabled and a span collector installed,
     best-of-trials on both sides.  The telemetry subsystem's budget is
     < 5% here; exceeding it fails the bench run. *)
  let telemetry_off_s, telemetry_on_s =
    let module Tm = Sherlock_telemetry.Metrics in
    let module Tspan = Sherlock_telemetry.Span in
    (* Interleaved off/on trials (best of each) so drift — GC, frequency
       scaling, a noisy neighbour — hits both sides equally. *)
    let off = ref infinity and on = ref infinity in
    for _ = 1 to 4 do
      Tm.set_enabled false;
      Tspan.set_collector None;
      off := Float.min !off (time_extract ~reps:10 stress_log);
      Tspan.set_collector (Some (Tspan.create_collector ()));
      Tm.set_enabled true;
      on := Float.min !on (time_extract ~reps:10 stress_log)
    done;
    Tm.set_enabled false;
    Tspan.set_collector None;
    Tm.reset Tm.default;
    (!off, !on)
  in
  let telemetry_overhead_pct =
    100.0 *. ((telemetry_on_s /. telemetry_off_s) -. 1.0)
  in
  let throughput n s = float n /. s in
  (* End-to-end Table 2 pipeline: fresh 3-round inference plus scoring for
     every app (no [infer_cache], so the number is order-independent). *)
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (a : App.t) ->
      let r = Orchestrator.infer (App.subject a) in
      ignore (Report.classify a.truth r.final))
    apps;
  let table2_s = Unix.gettimeofday () -. t0 in
  let time_infer parallelism =
    let config = { Config.default with parallelism } in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (a : App.t) -> ignore (Orchestrator.infer ~config (App.subject a)))
      apps;
    Unix.gettimeofday () -. t0
  in
  (* Two-plus domains are requested, but the orchestrator clamps to the
     host's core count (oversubscription is strictly slower under OCaml
     5's stop-the-world minor GC), so on a single-core container this
     measures the clamp's parity with the sequential path rather than a
     real speedup; [cores] is recorded alongside so the number can be
     read correctly.  Interleaved best-of-trials, like the telemetry
     comparison above, so drift hits both sides equally. *)
  let domains = max 2 (Domain.recommended_domain_count ()) in
  let cores = Domain.recommended_domain_count () in
  let sequential_s, parallel_s =
    let seq = ref infinity and par = ref infinity in
    for _ = 1 to 3 do
      seq := Float.min !seq (time_infer 1);
      par := Float.min !par (time_infer domains)
    done;
    (!seq, !par)
  in
  let stress_n = Log.length stress_log and largest_n = Log.length largest in
  let stress_tp = throughput stress_n stress_s in
  let largest_tp = throughput largest_n largest_s in
  let t =
    Table.create ~title:"Perf: extraction throughput and end-to-end wall-clock"
      ~header:[ "measure"; "value" ]
  in
  Table.add_row t
    [
      Printf.sprintf "extract %s (%d events)" largest_id largest_n;
      Printf.sprintf "%.0f events/sec (%.1fx seed, %.2fx prev)" largest_tp
        (largest_tp /. seed_largest_events_per_sec)
        (largest_tp /. largest_baseline);
    ];
  Table.add_row t
    [
      Printf.sprintf "extract stress (%d events)" stress_n;
      Printf.sprintf "%.0f events/sec (%.1fx seed, %.2fx prev)" stress_tp
        (stress_tp /. seed_stress_events_per_sec)
        (stress_tp /. stress_baseline);
    ];
  Table.add_row t
    [
      "telemetry overhead (stress extract)";
      Printf.sprintf "%.1f%% (off %.4fs, on %.4fs)" telemetry_overhead_pct
        telemetry_off_s telemetry_on_s;
    ];
  Table.add_row t [ "table2 end-to-end"; Printf.sprintf "%.3f s" table2_s ];
  Table.add_row t
    [ "corpus infer, sequential"; Printf.sprintf "%.3f s" sequential_s ];
  Table.add_row t
    [
      Printf.sprintf "corpus infer, %d domains" domains;
      Printf.sprintf "%.3f s" parallel_s;
    ];
  Table.print t;
  update_bench_sections
    [
      ( "stress",
        Printf.sprintf
          {|{"events": %d, "extract_s": %.6f, "events_per_sec": %.0f, "seed_events_per_sec": %.0f, "speedup_vs_seed": %.2f, "baseline_events_per_sec": %.0f, "speedup_vs_baseline": %.2f}|}
          stress_n stress_s stress_tp seed_stress_events_per_sec
          (stress_tp /. seed_stress_events_per_sec)
          stress_baseline
          (stress_tp /. stress_baseline) );
      ( "largest_corpus_log",
        Printf.sprintf
          {|{"id": "%s", "events": %d, "extract_s": %.6f, "events_per_sec": %.0f, "seed_events_per_sec": %.0f, "speedup_vs_seed": %.2f, "baseline_events_per_sec": %.0f, "speedup_vs_baseline": %.2f}|}
          largest_id largest_n largest_s largest_tp seed_largest_events_per_sec
          (largest_tp /. seed_largest_events_per_sec)
          largest_baseline
          (largest_tp /. largest_baseline) );
      ("table2_s", Printf.sprintf "%.3f" table2_s);
      ( "orchestrator",
        Printf.sprintf
          {|{"sequential_s": %.3f, "parallel_s": %.3f, "domains": %d, "cores": %d}|}
          sequential_s parallel_s domains cores );
      ( "telemetry",
        Printf.sprintf
          {|{"stress_extract_off_s": %.6f, "stress_extract_on_s": %.6f, "overhead_pct": %.2f, "budget_pct": 5.0}|}
          telemetry_off_s telemetry_on_s telemetry_overhead_pct );
    ];
  if telemetry_overhead_pct >= 5.0 then begin
    Printf.printf "FAIL: telemetry overhead %.1f%% exceeds the 5%% budget\n"
      telemetry_overhead_pct;
    exit 1
  end

(* LP engine gate: the full corpus inferred with cross-round warm starts
   on vs off — wall-clock, total simplex pivots, verdict identity, and
   the factorized-basis counters (refactorizations, eta-file high-water
   mark, cap rows the bounded-variable encoding kept out of the matrix).
   The warm run is the Table 2 pipeline (infer + classify), so its time
   is also gated against the previous recorded run.  Fails the run
   (exit 1) if warm starts stop at least halving the pivot count, if any
   verdict diverges, or if pivots/time regress past the slack against
   the last recorded baseline, so an LP-engine regression cannot land
   silently. *)
let lp_gate () =
  let show (r : Orchestrator.result) =
    String.concat ";"
      (List.map (fun v -> Format.asprintf "%a" Verdict.pp v) r.final)
  in
  let fold_lp init f results =
    List.fold_left
      (fun acc (r : Orchestrator.result) ->
        List.fold_left
          (fun acc (rr : Orchestrator.round_result) -> f acc rr.stats.lp)
          acc r.rounds)
      init results
  in
  let measure config =
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun (a : App.t) ->
          let r = Orchestrator.infer ~config (App.subject a) in
          ignore (Report.classify a.truth r.final);
          r)
        apps
    in
    let s = Unix.gettimeofday () -. t0 in
    let pivots = fold_lp 0 (fun acc l -> acc + l.Encoder.lp_pivots) results in
    let refactors =
      fold_lp 0 (fun acc l -> acc + l.Encoder.lp_refactors) results
    in
    let eta_len = fold_lp 0 (fun acc l -> max acc l.Encoder.lp_eta_len) results in
    let bound_saved =
      fold_lp 0 (fun acc l -> acc + l.Encoder.lp_bound_rows_saved) results
    in
    (s, pivots, refactors, eta_len, bound_saved, List.map show results)
  in
  (* Baselines from the previous recorded run, with slack for timer
     noise; absent on a first run, in which case only the structural
     gates apply. *)
  let prior_lp = List.assoc_opt "lp" (read_bench_sections ()) in
  let prior_num key = Option.bind prior_lp (fun v -> json_number v key) in
  (* Sequential, so the timing compares solver work rather than domain
     scheduling. *)
  let config = { Config.default with parallelism = 1 } in
  let warm_s, warm_pivots, refactors, eta_len, bound_saved, warm_verdicts =
    measure config
  in
  let cold_s, cold_pivots, _, _, _, cold_verdicts =
    measure { config with use_warm_start = false }
  in
  let identical = warm_verdicts = cold_verdicts in
  let ratio = float cold_pivots /. float (max 1 warm_pivots) in
  let pivots_ok =
    match prior_num "warm_pivots" with
    | Some b when b > 0.0 -> float warm_pivots <= (b *. 1.15) +. 16.0
    | _ -> true
  in
  let time_ok =
    match prior_num "table2_s" with
    | Some b when b > 0.0 -> warm_s <= (b *. 1.5) +. 0.25
    | _ -> true
  in
  let t =
    Table.create ~title:"LP engine: warm starts vs cold solves (8-app corpus)"
      ~header:[ "measure"; "warm"; "cold" ]
  in
  Table.add_row t
    [
      "corpus infer+classify"; Printf.sprintf "%.3f s" warm_s;
      Printf.sprintf "%.3f s" cold_s;
    ];
  Table.add_row t
    [ "total pivots"; string_of_int warm_pivots; string_of_int cold_pivots ];
  Table.add_row t
    [
      "basis engine";
      Printf.sprintf "f%d e%d" refactors eta_len;
      Printf.sprintf "b%d rows saved" bound_saved;
    ];
  Table.add_row t
    [
      "verdicts"; (if identical then "identical" else "DIVERGED");
      Printf.sprintf "(pivot ratio %.2fx)" ratio;
    ];
  Table.print t;
  let pass = identical && warm_pivots * 2 <= cold_pivots && pivots_ok && time_ok in
  update_bench_sections
    [
      ( "lp",
        Printf.sprintf
          {|{"warm_s": %.3f, "table2_s": %.3f, "cold_s": %.3f, "warm_pivots": %d, "cold_pivots": %d, "pivot_ratio": %.2f, "refactors": %d, "eta_len": %d, "bound_rows_saved": %d, "verdicts_identical": %b, "pass": %b}|}
          warm_s warm_s cold_s warm_pivots cold_pivots ratio refactors eta_len
          bound_saved identical pass );
    ];
  if not pass then begin
    Printf.printf
      "FAIL: lp gate (verdicts %s, warm pivots %d vs cold %d, need <= half; vs \
       baseline: pivots %s, time %s)\n"
      (if identical then "identical" else "diverged")
      warm_pivots cold_pivots
      (if pivots_ok then "ok" else "REGRESSED")
      (if time_ok then "ok" else "REGRESSED");
    exit 1
  end

(* Binary-format gate (DESIGN.md "Binary trace format"): the stress log
   saved in both formats and loaded back, with the binary loader
   required to ingest at least 10x the text loader's events/s, and the
   corpus verdicts required to be identical whether each test log
   reaches the solver through a text or a binary round-trip on disk.
   Fails the run (exit 1) otherwise, so a format-layer regression
   cannot land silently. *)
let format_gate () =
  let module Log = Sherlock_trace.Log in
  let module Trace_io = Sherlock_trace.Trace_io in
  let stress_log =
    Sherlock_sim.Runtime.run ~seed:7
      ~instrument:(Sherlock_sim.Runtime.tracing ())
      (Sherlock_corpus.Workload.stress ~workers:6 ~iters:3000)
  in
  let events = Log.length stress_log in
  let text_file = Filename.temp_file "sherlock_bench" ".trace" in
  let bin_file = Filename.temp_file "sherlock_bench" ".btrace" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ text_file; bin_file ])
  @@ fun () ->
  Trace_io.save ~format:Trace_io.Text stress_log text_file;
  Trace_io.save ~format:Trace_io.Binary stress_log bin_file;
  let text_bytes = (Unix.stat text_file).st_size in
  let bin_bytes = (Unix.stat bin_file).st_size in
  (* Bulk-ingest GC configuration: a 4 MiW minor heap keeps the decoded
     event records out of the promotion/write-barrier path that
     otherwise dominates both loaders equally and flattens the ratio.
     Applied identically to both formats and restored afterwards, so
     the other artifacts keep their default-GC comparability. *)
  let minor_heap_words = 4 * 1024 * 1024 in
  let saved_gc = Gc.get () in
  let text_s, bin_s =
    Fun.protect ~finally:(fun () -> Gc.set saved_gc) @@ fun () ->
    Gc.set { saved_gc with Gc.minor_heap_size = minor_heap_words };
    let time file =
      let t0 = Unix.gettimeofday () in
      ignore (Trace_io.load file);
      Unix.gettimeofday () -. t0
    in
    ignore (time text_file) (* warmup *);
    ignore (time bin_file);
    (* Interleaved best-of-trials, like the telemetry comparison in
       [perf], so drift hits both sides equally. *)
    let text = ref infinity and bin = ref infinity in
    for _ = 1 to 12 do
      text := Float.min !text (time text_file);
      bin := Float.min !bin (time bin_file)
    done;
    (!text, !bin)
  in
  let text_tp = float events /. text_s in
  let bin_tp = float events /. bin_s in
  let speedup = bin_tp /. text_tp in
  (* Verdict identity: every corpus test log pushed through an on-disk
     round-trip in each format before observation and solving. *)
  let solve_via format =
    List.map
      (fun (a : App.t) ->
        let obs = Observations.create () in
        List.iter
          (fun log ->
            let file = Filename.temp_file "sherlock_roundtrip" ".trace" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
            @@ fun () ->
            Trace_io.save ~format log file;
            Observations.add_log obs ~near:Config.default.near
              ~cap:Config.default.window_cap
              ~refine:Config.default.use_refinement (Trace_io.load file))
          (Orchestrator.run_test_logs (App.subject a));
        let verdicts, _stats = Encoder.solve Config.default obs in
        ( a.id,
          String.concat ";"
            (List.map (fun v -> Format.asprintf "%a" Verdict.pp v) verdicts) ))
      apps
  in
  let verdicts_identical = solve_via Trace_io.Text = solve_via Trace_io.Binary in
  let pass = verdicts_identical && speedup >= 10.0 in
  let t =
    Table.create ~title:"Trace format: binary vs text ingest (stress log)"
      ~header:[ "measure"; "text"; "binary" ]
  in
  Table.add_row t
    [
      Printf.sprintf "size (%d events)" events;
      Printf.sprintf "%d bytes" text_bytes; Printf.sprintf "%d bytes" bin_bytes;
    ];
  Table.add_row t
    [
      "load (best of 12)"; Printf.sprintf "%.4f s" text_s;
      Printf.sprintf "%.4f s" bin_s;
    ];
  Table.add_row t
    [
      "ingest"; Printf.sprintf "%.2fM events/sec" (text_tp /. 1e6);
      Printf.sprintf "%.2fM events/sec (%.1fx)" (bin_tp /. 1e6) speedup;
    ];
  Table.add_row t
    [
      "corpus verdicts via round-trip";
      (if verdicts_identical then "identical" else "DIVERGED"); "";
    ];
  Table.print t;
  update_bench_sections
    [
      ( "format",
        Printf.sprintf
          {|{"events": %d, "text_bytes": %d, "binary_bytes": %d, "text_load_s": %.6f, "binary_load_s": %.6f, "text_events_per_sec": %.0f, "binary_events_per_sec": %.0f, "speedup": %.2f, "minor_heap_words": %d, "verdicts_identical": %b, "pass": %b}|}
          events text_bytes bin_bytes text_s bin_s text_tp bin_tp speedup
          minor_heap_words verdicts_identical pass );
    ];
  if not pass then begin
    Printf.printf
      "FAIL: format gate (speedup %.2fx, need >= 10x; verdicts %s)\n" speedup
      (if verdicts_identical then "identical" else "diverged");
    exit 1
  end

(* Robustness gate: the whole corpus is inferred under a randomized
   fault plan (crashes, a hung thread, spurious wakeups) plus the step
   watchdog, and the run must demonstrate that no single failing test
   run can kill an inference:

   - every app completes all configured rounds with its failures
     reported in the round results;
   - at least one injected crash and at least one hang-class outcome
     (deadlock or watchdog stall) actually fired somewhere;
   - apps the plan never touched produce final verdicts identical to
     the no-fault baseline (the fault lookup consumes no scheduler
     randomness);
   - the watchdog converts a livelocked stress run into
     [Runtime.Stalled] rather than spinning forever. *)
let eval_fault_plan fault_plan =
  let config = { Config.default with fault_plan; retries = 1 } in
  let crashes = ref 0 and deadlocks = ref 0 and stalls = ref 0 in
  let unaffected = ref 0 and identical = ref 0 in
  let all_rounds = ref true and verdicts = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let base = (infer a).final in
      let r = Orchestrator.infer ~config (App.subject a) in
      if List.length r.rounds <> config.rounds then all_rounds := false;
      verdicts := !verdicts + List.length r.final;
      let injected = ref 0 in
      List.iter
        (fun (rr : Orchestrator.round_result) ->
          injected := !injected + Orchestrator.injected_faults rr.run_reports;
          List.iter
            (fun (rep : Orchestrator.run_report) ->
              List.iter
                (function
                  | Orchestrator.Crashed _ -> incr crashes
                  | Orchestrator.Deadlocked _ -> incr deadlocks
                  | Orchestrator.Stalled _ -> incr stalls)
                rep.failures)
            rr.run_reports)
        r.rounds;
      (* "Unaffected" is strict: not one plan site fired in any round —
         not merely "no failure", since a fired wakeup perturbs the
         schedule without failing the run. *)
      if !injected = 0 then begin
        incr unaffected;
        if List.equal (fun v1 v2 -> Verdict.compare v1 v2 = 0) base r.final then
          incr identical
      end)
    apps;
  (!crashes, !deadlocks, !stalls, !unaffected, !identical, !all_rounds, !verdicts)

(* Tuning aid for the robustness gate's pinned plan seed (run it by name;
   excluded from the run-everything path): a useful plan needs every
   failure class to fire somewhere yet leave at least one app untouched
   for the baseline-identity check. *)
let robustness_scan () =
  for seed = 1 to 30 do
    let plan =
      Sherlock_sim.Fault.randomized ~seed ~crashes:1 ~hangs:1 ~wakeups:1
        ~max_tid:5 ~max_op:150 ()
    in
    let c, d, s, u, i, ar, v = eval_fault_plan plan in
    Printf.printf
      "seed %2d: crash %3d dead %3d stall %3d unaffected %d identical %d \
       rounds %b verdicts %2d  [%s]\n%!"
      seed c d s u i ar v
      (String.concat " " (Sherlock_sim.Fault.to_specs plan))
  done

let robustness () =
  (* Seed 29 (from robustness-scan): crashes and deadlocks both fire,
     one app stays untouched for the identity check. *)
  let fault_plan =
    Sherlock_sim.Fault.randomized ~seed:29 ~crashes:1 ~hangs:1 ~wakeups:1
      ~max_tid:5 ~max_op:150 ()
  in
  let crashes, deadlocks, stalls, unaffected, identical, all_rounds, verdicts =
    eval_fault_plan fault_plan
  in
  let crashes = ref crashes and deadlocks = ref deadlocks in
  let stalls = ref stalls and unaffected = ref unaffected in
  let identical = ref identical and all_rounds = ref all_rounds in
  let verdicts = ref verdicts in
  let stall_demo =
    match
      Sherlock_sim.Runtime.run ~seed:7
        ~instrument:(Sherlock_sim.Runtime.tracing ())
        ~max_steps:2_000
        (Sherlock_corpus.Workload.stress ~workers:6 ~iters:400)
    with
    | _ -> false
    | exception Sherlock_sim.Runtime.Stalled _ -> true
  in
  let t =
    Table.create
      ~title:"Robustness: corpus inference under a randomized fault plan"
      ~header:[ "measure"; "value" ]
  in
  Table.add_row t
    [ "fault plan"; Format.asprintf "%a" Sherlock_sim.Fault.pp fault_plan ];
  Table.add_row t
    [
      "injected failures (crash/deadlock/stall)";
      Printf.sprintf "%d / %d / %d" !crashes !deadlocks !stalls;
    ];
  Table.add_row t
    [
      "all rounds completed";
      Printf.sprintf "%b (%d apps, %d final verdicts)" !all_rounds
        (List.length apps) !verdicts;
    ];
  Table.add_row t
    [
      "unaffected apps identical to baseline";
      Printf.sprintf "%d / %d" !identical !unaffected;
    ];
  Table.add_row t
    [ "watchdog stalls livelocked stress run"; string_of_bool stall_demo ];
  Table.print t;
  let ok =
    !all_rounds && !crashes >= 1
    && !deadlocks + !stalls >= 1
    && !unaffected > 0
    && !identical = !unaffected
    && !verdicts > 0 && stall_demo
  in
  update_bench_sections
    [
      ( "robustness",
        Printf.sprintf
          {|{"fault_plan": "%s", "crashes": %d, "deadlocks": %d, "stalls": %d, "apps": %d, "unaffected": %d, "unaffected_identical": %d, "final_verdicts": %d, "watchdog_stall_demo": %b, "pass": %b}|}
          (String.concat " " (Sherlock_sim.Fault.to_specs fault_plan))
          !crashes !deadlocks !stalls (List.length apps) !unaffected !identical
          !verdicts stall_demo ok );
    ];
  if not ok then begin
    Printf.printf "FAIL: robustness gate violated\n";
    exit 1
  end

(* Provenance gate: capture must be free when off and harmless when on.
   The whole corpus is inferred with capture off and on (interleaved
   best-of-trials so clock drift hits both sides): the verdicts must be
   identical — capture only reads duals after the pivot sequence is done
   — every captured verdict must carry evidence windows, and the
   disabled-capture wall-clock must stay within 2% of the previous
   recorded run (self-seeding on the first run, like the perf
   baselines). *)
let provenance_gate () =
  let show (r : Orchestrator.result) =
    String.concat ";"
      (List.map (fun v -> Format.asprintf "%a" Verdict.pp v) r.final)
  in
  let config = { Config.default with parallelism = 1 } in
  let measure provenance =
    let config = { config with provenance } in
    let t0 = Unix.gettimeofday () in
    let results =
      List.map (fun (a : App.t) -> Orchestrator.infer ~config (App.subject a)) apps
    in
    (Unix.gettimeofday () -. t0, results)
  in
  let trials = 3 in
  let off_s = ref infinity and on_s = ref infinity in
  let off_results = ref [] and on_results = ref [] in
  for _ = 1 to trials do
    let s, r = measure false in
    if s < !off_s then begin
      off_s := s;
      off_results := r
    end;
    let s, r = measure true in
    if s < !on_s then begin
      on_s := s;
      on_results := r
    end
  done;
  let identical = List.map show !off_results = List.map show !on_results in
  let module P = Sherlock_provenance.Provenance in
  let verdicts_with_evidence, verdicts_total =
    List.fold_left
      (fun (withe, total) (r : Orchestrator.result) ->
        match r.provenance with
        | None -> (withe, total + List.length r.final)
        | Some prov ->
          ( withe
            + List.length
                (List.filter
                   (fun (v : P.verdict_evidence) -> v.P.v_windows <> [])
                   prov.P.p_verdicts),
            total + List.length prov.P.p_verdicts ))
      (0, 0) !on_results
  in
  let prior = read_bench_sections () in
  let baseline =
    match List.assoc_opt "provenance" prior with
    | None -> !off_s
    | Some v -> Option.value (json_number v "off_s") ~default:!off_s
  in
  let overhead_pct = (!off_s -. baseline) /. baseline *. 100.0 in
  let t =
    Table.create ~title:"Provenance capture: off vs on (8-app corpus)"
      ~header:[ "measure"; "off"; "on" ]
  in
  Table.add_row t
    [
      "corpus infer"; Printf.sprintf "%.3f s" !off_s;
      Printf.sprintf "%.3f s" !on_s;
    ];
  Table.add_row t
    [
      "verdicts"; (if identical then "identical" else "DIVERGED");
      Printf.sprintf "%d/%d with evidence" verdicts_with_evidence verdicts_total;
    ];
  Table.add_row t
    [
      "off overhead vs baseline"; Printf.sprintf "%.2f%%" overhead_pct;
      "(budget 2%)";
    ];
  Table.print t;
  let pass =
    identical && verdicts_with_evidence = verdicts_total && verdicts_total > 0
    && overhead_pct < 2.0
  in
  update_bench_sections
    [
      ( "provenance",
        Printf.sprintf
          {|{"off_s": %.3f, "on_s": %.3f, "baseline_off_s": %.3f, "overhead_pct": %.2f, "verdicts_identical": %b, "verdicts_total": %d, "verdicts_with_evidence": %d, "pass": %b}|}
          !off_s !on_s baseline overhead_pct identical verdicts_total
          verdicts_with_evidence pass );
    ];
  if not pass then begin
    Printf.printf
      "FAIL: provenance gate (verdicts %s, %d/%d with evidence, disabled \
       overhead %.2f%%, budget 2%%)\n"
      (if identical then "identical" else "diverged")
      verdicts_with_evidence verdicts_total overhead_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let app2 = Registry.find "App-2" in
  let subject = App.subject app2 in
  let flag_log = List.hd (Orchestrator.run_test_logs subject) in
  let obs = Observations.create () in
  Observations.add_log obs ~near:1_000_000 ~cap:15 ~refine:true flag_log;
  let first_test = snd (List.hd app2.tests) in
  let verdicts = (infer app2).final in
  let tests =
    [
      Test.make ~name:"simulator: one App-2 test run"
        (Staged.stage (fun () ->
             ignore
               (Sherlock_sim.Runtime.run ~seed:1
                  ~instrument:(Sherlock_sim.Runtime.tracing ()) first_test)));
      Test.make ~name:"windows: extraction"
        (Staged.stage (fun () -> ignore (Sherlock_trace.Windows.extract flag_log)));
      Test.make ~name:"solver: App-2 LP"
        (Staged.stage (fun () -> ignore (Encoder.solve Config.default obs)));
      Test.make ~name:"fasttrack: one trace"
        (Staged.stage (fun () ->
             ignore (Detector.run (Sync_model.inferred verdicts) flag_log)));
    ]
  in
  let grouped = Test.make_grouped ~name:"sherlock" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Microbenchmarks (Bechamel, monotonic clock):";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "  %-40s %12.1f ns/run\n" name ns
      | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

(* Parallel-extraction gate: a 1M-event synthetic stress log (built on
   the fly by [Sherlock_trace.Synth] — wired behind this bench flag
   precisely so nothing that size is ever checked in) must extract
   *identically* under sharded extraction — same windows, same races,
   same cap/considered counters — and, on a multicore host, at least
   1.8x faster with >= 2 domains than sequentially.  Single-core hosts
   skip the speedup requirement gracefully (recorded as "cores": 1 with
   "skipped": true), so the identity half still gates everywhere.  The
   span-cache hit rate of the sharded run is recorded alongside. *)
let extract_par () =
  let module Log = Sherlock_trace.Log in
  let module Windows = Sherlock_trace.Windows in
  let module Tm = Sherlock_telemetry.Metrics in
  let cores = Domain.recommended_domain_count () in
  let events = 1_000_000 in
  (* A [near] well under the log's span keeps windows bounded while
     still covering many cross-thread neighbours per address. *)
  let near = 20_000 in
  Printf.printf "generating %d-event synthetic log...\n%!" events;
  let log = Sherlock_trace.Synth.log ~seed:11 ~addrs:2048 ~threads:16 ~events () in
  let n = Log.length log in
  let pool = Sherlock_util.Pool.create () in
  Fun.protect ~finally:(fun () -> Sherlock_util.Pool.retire pool) @@ fun () ->
  let c_hit = Tm.counter "windows.span_cache.hit" in
  let c_miss = Tm.counter "windows.span_cache.miss" in
  (* Identity: sequential vs 4-way sharded.  The sharded run is forced
     even on one core — determinism must not depend on the host. *)
  let m_seq = Sherlock_trace.Metrics.create () in
  let ws, rs = Windows.extract ~near ~metrics:m_seq log in
  let hit0 = Tm.Counter.value c_hit and miss0 = Tm.Counter.value c_miss in
  let m_par = Sherlock_trace.Metrics.create () in
  let wp, rp = Windows.extract ~near ~metrics:m_par ~jobs:4 ~pool log in
  let hits = Tm.Counter.value c_hit - hit0 in
  let misses = Tm.Counter.value c_miss - miss0 in
  let cache_rate =
    if hits + misses = 0 then 0.0 else float hits /. float (hits + misses)
  in
  let side_eq a b = Windows.Side.bindings a = Windows.Side.bindings b in
  let window_eq (a : Windows.t) (b : Windows.t) =
    a.pair = b.pair && a.field = b.field && side_eq a.rel b.rel
    && side_eq a.acq b.acq && a.coord = b.coord
  in
  let race_eq (a : Windows.race) (b : Windows.race) =
    a.race_pair = b.race_pair && a.race_field = b.race_field
  in
  let counters (m : Sherlock_trace.Metrics.t) =
    (m.events, m.pairs_considered, m.pairs_capped, m.windows, m.races)
  in
  let identical =
    List.length ws = List.length wp
    && List.length rs = List.length rp
    && List.for_all2 window_eq ws wp
    && List.for_all2 race_eq rs rp
    && counters m_seq = counters m_par
  in
  (* Throughput at 1, 2, 4 domains, timed on every host so the recorded
     section is always complete (on a single core the oversubscribed
     rows document the domain + stop-the-world-GC overhead; only the
     speedup *requirement* is core-gated).  Interleaved best-of-trials
     so drift hits every job count equally. *)
  let job_list = [ 1; 2; 4 ] in
  let times = List.map (fun j -> (j, ref infinity)) job_list in
  for _ = 1 to 2 do
    List.iter
      (fun (j, best) ->
        let t0 = Unix.gettimeofday () in
        ignore (Windows.extract ~near ~jobs:j ~pool log);
        best := Float.min !best (Unix.gettimeofday () -. t0))
      times
  done;
  let time_of j = !(List.assoc j times) in
  let seq_s = time_of 1 in
  let best_par_s =
    List.fold_left
      (fun acc (j, best) -> if j > 1 then Float.min acc !best else acc)
      infinity times
  in
  let speedup = seq_s /. best_par_s in
  let skipped = cores < 2 in
  let t =
    Table.create ~title:"Parallel extraction: 1M-event synthetic log"
      ~header:[ "measure"; "value" ]
  in
  Table.add_row t [ "events"; string_of_int n ];
  Table.add_row t [ "cores"; string_of_int cores ];
  Table.add_row t
    [ "identical (windows/races/metrics)"; (if identical then "yes" else "NO") ];
  List.iter
    (fun (j, best) ->
      Table.add_row t
        [
          Printf.sprintf "extract, %d job%s" j (if j = 1 then "" else "s");
          Printf.sprintf "%.3f s (%.0f events/sec)" !best (float n /. !best);
        ])
    times;
  Table.add_row t
    [
      "speedup vs sequential";
      (if skipped then "skipped (single core)"
       else Printf.sprintf "%.2fx (>= 1.80x required)" speedup);
    ];
  Table.add_row t
    [
      "span-cache hit rate (sharded run)";
      Printf.sprintf "%.1f%% (%d hits, %d misses)" (100.0 *. cache_rate) hits
        misses;
    ];
  Table.print t;
  let jobs_json =
    String.concat ""
      (List.map
         (fun (j, best) ->
           Printf.sprintf {|, "jobs%d_events_per_sec": %.0f|} j
             (float n /. !best))
         times)
  in
  update_bench_sections
    [
      ( "extract_par",
        Printf.sprintf
          {|{"events": %d, "cores": %d, "identical": %b, "skipped": %b, "speedup": %.2f, "threshold": 1.8, "span_cache_hit_rate": %.3f%s}|}
          n cores identical skipped
          (if skipped then 0.0 else speedup)
          cache_rate jobs_json );
    ];
  if not identical then begin
    Printf.printf
      "FAIL: sharded extraction diverged from the sequential extractor\n";
    exit 1
  end;
  if (not skipped) && speedup < 1.8 then begin
    Printf.printf "FAIL: extraction speedup %.2fx below the 1.8x gate\n" speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* Metrics-plane gate: the full corpus inferred with the live stats
   plane fully on — registry enabled, runtime gauges installed, a ring
   snapshotting on the 100 ms ticker with each snapshot atomically
   rewritten as OpenMetrics (exactly what `run --metrics-out` wires
   up).  Gated statistic: the plane's *direct* cost — seconds spent
   capturing snapshots and rewriting the file, self-accounted by the
   ring ([Snapshot.busy_seconds]) — as a fraction of run wall-clock,
   which must stay under 3%.  (An off-vs-on wall-clock A/B is recorded
   alongside for context but not gated: this container's CPU quota
   jitters either side by +/- 25%, far past a 3% budget, so the A/B
   median would flake where the deterministic accounting cannot.)
   The plane must also not perturb inference — verdicts with the plane
   on must equal the plane-off verdicts — and the exported file must
   parse.  Any failure exits 1 (the "stats" section of
   BENCH_trace.json). *)
let stats_gate () =
  let module Tm = Sherlock_telemetry.Metrics in
  let module Tsnap = Sherlock_telemetry.Snapshot in
  let module Om = Sherlock_telemetry.Openmetrics in
  let show (r : Orchestrator.result) =
    String.concat ";"
      (List.map (fun v -> Format.asprintf "%a" Verdict.pp v) r.final)
  in
  let run_corpus config =
    List.map
      (fun (a : App.t) -> show (Orchestrator.infer ~config (App.subject a)))
      apps
  in
  let out = Filename.temp_file "sherlock_stats_bench" ".om" in
  (* Warmup sweep (code paths, page cache), then timed off sweep. *)
  Tm.set_enabled false;
  ignore (run_corpus Config.default);
  let t0 = Unix.gettimeofday () in
  let off_verdicts = run_corpus Config.default in
  let off_s = Unix.gettimeofday () -. t0 in
  (* The on side: one ticker lifetime around the sweep, as in a real
     `run --metrics-out` process (the orchestrator owns the ticker
     there; here twelve separate infer calls share one). *)
  Tm.set_enabled true;
  Tsnap.install_runtime_gauges ();
  let ring =
    Tsnap.create
      ~on_snapshot:(fun p ->
        try Om.write_atomic out (Om.of_point p) with Sys_error _ -> ())
      ()
  in
  Tsnap.install ring;
  Tsnap.start_ticker ~interval_ms:100 ();
  let on_verdicts, on_s =
    Fun.protect
      ~finally:(fun () ->
        Tsnap.stop_ticker ();
        Tsnap.uninstall ();
        Tm.set_enabled false;
        Tm.reset Tm.default)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let v = run_corpus Config.default in
        (v, Unix.gettimeofday () -. t0))
  in
  let snapshots = Tsnap.length ring in
  let busy_s = Tsnap.busy_seconds ring in
  let direct_pct = 100.0 *. busy_s /. on_s in
  let ab_pct = 100.0 *. ((on_s /. off_s) -. 1.0) in
  let exported_ok =
    match Om.parse_file out with Ok _ -> true | Error _ -> false
  in
  (try Sys.remove out with Sys_error _ -> ());
  let identical = off_verdicts = on_verdicts in
  let t =
    Table.create ~title:"Stats plane: corpus inference with the plane on"
      ~header:[ "measure"; "value" ]
  in
  Table.add_row t [ "plane off sweep"; Printf.sprintf "%.3f s" off_s ];
  Table.add_row t
    [ "plane on sweep (100ms ticker + OpenMetrics rewrite)";
      Printf.sprintf "%.3f s (A/B %+.1f%%, noise-dominated)" on_s ab_pct ];
  Table.add_row t
    [ "snapshots taken"; Printf.sprintf "%d (%.2f ms each)" snapshots
        (if snapshots = 0 then 0.0 else 1000.0 *. busy_s /. float snapshots) ];
  Table.add_row t
    [ "direct plane cost (capture + rewrite)";
      Printf.sprintf "%.3f s = %.2f%% of wall-clock (budget 3%%)" busy_s
        direct_pct ];
  Table.add_row t [ "verdicts identical"; Printf.sprintf "%b" identical ];
  Table.add_row t [ "exported file parses"; Printf.sprintf "%b" exported_ok ];
  Table.print t;
  update_bench_sections
    [
      ( "stats",
        Printf.sprintf
          {|{"off_s": %.3f, "on_s": %.3f, "snapshots": %d, "busy_s": %.4f, "direct_overhead_pct": %.2f, "ab_overhead_pct": %.2f, "budget_pct": 3.0, "interval_ms": 100, "verdicts_identical": %b, "export_parses": %b}|}
          off_s on_s snapshots busy_s direct_pct ab_pct identical exported_ok
      );
    ];
  if not identical then begin
    Printf.printf "FAIL: metrics plane perturbed the corpus verdicts\n";
    exit 1
  end;
  if not exported_ok then begin
    Printf.printf "FAIL: exported OpenMetrics file did not parse\n";
    exit 1
  end;
  if direct_pct >= 3.0 then begin
    Printf.printf
      "FAIL: stats-plane direct cost %.2f%% exceeds the 3%% budget\n"
      direct_pct;
    exit 1
  end

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("figure4", figure4);
    ("tables8_9", tables8_9);
    ("tsvd", tsvd_enhance);
    ("ablation_extras", ablation_extras);
    ("overhead", overhead);
    ("perf", perf);
    ("lp", lp_gate);
    ("format", format_gate);
    ("provenance", provenance_gate);
    ("extract_par", extract_par);
    ("stats", stats_gate);
    ("robustness", robustness);
    ("robustness-scan", robustness_scan);
    ("microbench", bechamel_suite);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "--list" :: _ -> List.iter (fun (name, _) -> print_endline name) artifacts
  | _ :: ((_ :: _) as names) ->
    List.iter
      (fun name ->
        match List.assoc_opt name artifacts with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown artifact %S (try --list)\n" name;
          exit 2)
      names
  | _ ->
    List.iter
      (fun (name, f) ->
        Printf.printf "==== %s ====\n%!" name;
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "(%s regenerated in %.1fs)\n\n%!" name
          (Unix.gettimeofday () -. t0))
      (List.filter (fun (name, _) -> name <> "robustness-scan") artifacts)
