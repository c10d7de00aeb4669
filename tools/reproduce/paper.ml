(* The paper's evaluation (Section 5) as data.  Each artifact takes the
   base configuration (the paper's defaults at some seed) and returns its
   cells; rendering and checking them is the caller's business.  Absolute
   counts are smaller than the paper's: the corpus is a scaled-down
   synthetic analogue. *)

open Sherlock_core
open Sherlock_corpus
open Artifact
module Opid = Sherlock_trace.Opid
module Detector = Sherlock_fasttrack.Detector
module Sync_model = Sherlock_fasttrack.Sync_model
module Tsvd = Sherlock_tsvd.Tsvd

let apps = Registry.all ()

(* Inference results are shared by several tables; memoize per config. *)
let infer_cache : (Config.t * string, Orchestrator.result) Hashtbl.t =
  Hashtbl.create 32

let clear_cache () = Hashtbl.reset infer_cache

let infer config (app : App.t) =
  let key = (config, app.id) in
  match Hashtbl.find_opt infer_cache key with
  | Some r -> r
  | None ->
    let r = Orchestrator.infer ~config (App.subject app) in
    Hashtbl.add infer_cache key r;
    r

let classify config (app : App.t) =
  Report.classify app.truth (infer config app).final

module Sync_set = Set.Make (struct
  type t = Opid.t * Verdict.role

  let compare (o1, r1) (o2, r2) =
    match Opid.compare o1 o2 with 0 -> compare r1 r2 | c -> c
end)

let add_correct set (report : Report.t) =
  List.fold_left
    (fun set ((v : Verdict.t), cls) ->
      match cls with
      | Report.Correct _ -> Sync_set.add (v.op, v.role) set
      | Report.Data_racy | Report.Instr_error | Report.Not_sync -> set)
    set report.classified

(* Unique synchronization counts across applications (the paper's
   parenthesized sums): verdicts deduplicated by (operation, role). *)
let unique_counts config =
  let correct, total =
    List.fold_left
      (fun (correct, total) app ->
        let r = classify config app in
        ( add_correct correct r,
          List.fold_left
            (fun total ((v : Verdict.t), _) -> Sync_set.add (v.op, v.role) total)
            total r.classified ))
      (Sync_set.empty, Sync_set.empty) apps
  in
  (Sync_set.cardinal correct, Sync_set.cardinal total)

let ints = List.map (fun n -> Int n)

(* Per-app rows of counts followed by their column sums. *)
let with_sums rows =
  let width = match rows with (_, r) :: _ -> List.length r | [] -> 0 in
  let sums =
    List.fold_left (List.map2 ( + )) (List.init width (fun _ -> 0)) (List.map snd rows)
  in
  List.map (fun (id, r) -> Text id :: ints r) rows @ [ Text "Sum" :: ints sums ]

(* Most artifacts are one table. *)
let one_table ?(style = Markdown) title header rows =
  { title; style; tables = [ table header rows ] }

let table1 _ =
  one_table "Table 1: Applications in benchmarks"
    [ "ID"; "Name"; "LoC"; "#Stars"; "#Tests" ]
    (List.map
       (fun (a : App.t) ->
         [
           Text a.id; Text a.name;
           Text (Printf.sprintf "%.1fK" (float a.loc /. 1000.0));
           Int a.stars; Int (List.length a.tests);
         ])
       apps)

let table2 config =
  let per_app =
    List.map
      (fun (a : App.t) ->
        let r = classify config a in
        ( a.id,
          [
            Report.num_correct r; Report.count r Report.Data_racy;
            Report.count r Report.Instr_error; Report.count r Report.Not_sync;
          ] ))
      apps
  in
  let unique, _ = unique_counts config in
  (* The unique count exists only for the sum: it is the paper's
     parenthesized "Syncs (unique)". *)
  let rows =
    List.map
      (function
        | Text "Sum" :: syncs :: rest -> Text "Sum" :: syncs :: Int unique :: rest
        | label :: syncs :: rest -> label :: syncs :: Text "" :: rest
        | row -> row)
      (with_sums per_app)
  in
  one_table "Table 2: SherLock inferred results after 3 rounds"
    [ "ID"; "Syncs"; "Unique"; "Data Racy"; "Instr. Errors"; "Not Sync" ]
    rows

let race_scores config (a : App.t) model_of =
  List.fold_left
    (fun (true_races, false_races) log ->
      match Detector.first_race (Detector.run (model_of log) log) with
      | None -> (true_races, false_races)
      | Some r ->
        if Ground_truth.is_racy_field a.truth r.field then (true_races + 1, false_races)
        else (true_races, false_races + 1))
    (0, 0)
    (Orchestrator.run_test_logs ~config (App.subject a))

let table3 config =
  let rows =
    List.map
      (fun (a : App.t) ->
        let verdicts = (infer config a).final in
        let mt, mf = race_scores config a Sync_model.manual in
        let st, sf = race_scores config a (fun _ -> Sync_model.inferred verdicts) in
        (a.id, [ mt; st; mf; sf ]))
      apps
  in
  one_table
    "Table 3: SherLock vs manual annotation in race detection (first race per run)"
    [
      "ID"; "True Manual_dr"; "True SherLock_dr"; "False Manual_dr";
      "False SherLock_dr";
    ]
    (with_sums rows)

let table4 config =
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
  let bump a c = a.(idx c) <- a.(idx c) + 1 in
  List.iter
    (fun (a : App.t) ->
      let r = classify config a in
      List.iter
        (fun ((v : Verdict.t), cls) ->
          match cls with
          | Report.Correct _ | Report.Data_racy -> ()
          | Report.Instr_error | Report.Not_sync ->
            bump false_sync (Report.false_positive_cause a.truth v))
        r.classified;
      (* As in the paper (§5.5), uncategorized misses are only counted
         when they surface through a false data race; the categorized
         design cases (instrumentation, double role, dispose, statics)
         are counted directly. *)
      List.iter
        (fun (e : Ground_truth.entry) ->
          if e.category <> Ground_truth.Other_cause then bump missed_sync e.category)
        r.missed;
      (* SherLock_dr false races, attributed to the guard of the field. *)
      let other_missed_fields = Hashtbl.create 4 in
      let verdicts = (infer config a).final in
      List.iter
        (fun log ->
          let report = Detector.run (Sync_model.inferred verdicts) log in
          List.iter
            (fun (race : Detector.race) ->
              if not (Ground_truth.is_racy_field a.truth race.field) then begin
                let c = Ground_truth.guard_cause a.truth race.field in
                bump false_races c;
                if c = Ground_truth.Other_cause then
                  Hashtbl.replace other_missed_fields race.field ()
              end)
            report.races)
        (Orchestrator.run_test_logs ~config (App.subject a));
      let other = idx Ground_truth.Other_cause in
      missed_sync.(other) <- missed_sync.(other) + Hashtbl.length other_missed_fields)
    apps;
  let row name i =
    Text name :: ints [ false_sync.(i); missed_sync.(i); false_races.(i) ]
  in
  let sum a = Array.fold_left ( + ) 0 a in
  one_table "Table 4: Breakdown of false positives/negatives"
    [ ""; "#False Sync."; "#Missed Sync."; "#False Races" ]
    (List.map (fun c -> row (Ground_truth.cause_name c) (idx c)) causes
    @ [ Text "Total" :: ints [ sum false_sync; sum missed_sync; sum false_races ] ])

let precision correct total =
  Pct (if total = 0 then nan else 100.0 *. float correct /. float total)

let table5 (config : Config.t) =
  let variants =
    [
      ("SherLock", config);
      ("w/o Mostly are Protected", { config with use_protected = false });
      ("w/o Synchronizations are Rare", { config with use_rare = false });
      ("w/o Acq-Time Varies", { config with use_variation = false });
      ("w/o Mostly are Paired", { config with use_paired = false });
      ("w/o Read-Acq & Write-Rel", { config with use_role_property = false });
      ("w/o Single Role", { config with use_single_role = false });
    ]
  in
  one_table "Table 5: Inference with or without certain hypothesis"
    [ ""; "#Correct"; "#Total"; "Precision" ]
    (List.map
       (fun (name, config) ->
         let correct, total = unique_counts config in
         [ Text name; Int correct; Int total; precision correct total ])
       variants)

(* Tables 6 and 7: unique correct/total counts across a parameter sweep. *)
let sweep ~title ~param settings =
  let counts = List.map (fun (_, config) -> unique_counts config) settings in
  one_table title
    (param :: List.map fst settings)
    [
      Text "#correct" :: List.map (fun (c, _) -> Int c) counts;
      Text "#total" :: List.map (fun (_, n) -> Int n) counts;
    ]

let table6 (config : Config.t) =
  sweep ~title:"Table 6: Sensitivity of lambda (unique sums, 3 rounds)"
    ~param:"lambda"
    (List.map
       (fun lambda -> (Printf.sprintf "%g" lambda, { config with lambda }))
       [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0; 5.0; 10.0; 50.0; 100.0 ])

let table7 (config : Config.t) =
  sweep ~title:"Table 7: Sensitivity of Near (unique sums, 3 rounds)"
    ~param:"Near"
    (List.map
       (fun (near, name) -> (name, { config with near }))
       [ (10_000, "0.01s"); (1_000_000, "1s"); (100_000_000, "100s") ])

let figure4 (config : Config.t) =
  let settings =
    [
      ("SherLock", config);
      ("no delay injection", { config with use_delays = false });
      ("no accumulation", { config with accumulate = false });
      ("no race removal", { config with use_race_removal = false });
      ("no window refinement", { config with use_refinement = false });
    ]
  in
  let max_rounds = 6 in
  let row (name, base) =
    let config = { base with Config.rounds = max_rounds } in
    (* One inference run delivers the verdicts of every prefix round. *)
    let sets = Array.make max_rounds Sync_set.empty in
    List.iter
      (fun (a : App.t) ->
        List.iter
          (fun (r : Orchestrator.round_result) ->
            sets.(r.round - 1) <-
              add_correct sets.(r.round - 1) (Report.classify a.truth r.verdicts))
          (infer config a).rounds)
      apps;
    Text name :: List.map (fun s -> Int (Sync_set.cardinal s)) (Array.to_list sets)
  in
  one_table ~style:Fenced
    "Figure 4: correctly inferred unique synchronizations per round, under \
     different Perturber and feedback settings"
    ("setting" :: List.init max_rounds (fun i -> Printf.sprintf "run %d" (i + 1)))
    (List.map row settings)

let tables8_9 config =
  let site gt role (v : Verdict.t) =
    let description =
      match Ground_truth.find gt v.op v.role with
      | Some e -> e.description
      | None -> ""
    in
    [ Text role; Text (Opid.to_string v.op); Text description ]
  in
  {
    title = "Tables 8/9: inferred synchronizations per application";
    style = Fenced;
    tables =
      List.map
        (fun (a : App.t) ->
          let verdicts = (infer config a).final in
          table ~caption:("App:" ^ a.name) [ "role"; "site"; "description" ]
            (List.map (site a.truth "release") (Verdict.releases verdicts)
            @ List.map (site a.truth "acquire") (Verdict.acquires verdicts)))
        apps;
  }

let tsvd config =
  let rows =
    List.filter_map
      (fun (a : App.t) ->
        if a.uses_unsafe_apis then
          let o = Tsvd.analyze ~config (App.subject a) (infer config a).final in
          Some
            ( a.id,
              [
                List.length o.candidate_pairs; List.length o.tsvd_hb;
                List.length o.sherlock_hb;
              ] )
        else None)
      apps
  in
  one_table "Section 5.6: TSVD happens-before inference vs SherLock synchronizations"
    [ "ID"; "Conflicting pairs"; "TSVD HB pairs"; "SherLock-synced pairs" ]
    (with_sums rows)

(* Extension ablations: parameters the paper fixes without sweeping
   (window cap, verdict threshold, delay length) and the two documented
   follow-ups (soft Single-Role, probabilistic delay injection). *)
let ablation_extras (config : Config.t) =
  let sweep caption rows =
    table ~caption
      [ "configuration"; "#Correct"; "#Total" ]
      (List.map
         (fun (name, config) ->
           let correct, total = unique_counts config in
           [ Text name; Int correct; Int total ])
         rows)
  in
  {
    title = "Extensions: parameters the paper fixes, and its two follow-ups";
    style = Markdown;
    tables =
      [
        sweep "Window cap per static location pair (paper fixes 15)"
          (List.map
             (fun cap ->
               (Printf.sprintf "cap = %d" cap, { config with window_cap = cap }))
             [ 1; 5; 15; 50 ]);
        sweep "Verdict probability threshold (paper reads variables 'assigned 1')"
          (List.map
             (fun threshold ->
               (Printf.sprintf "threshold = %.2f" threshold, { config with threshold }))
             [ 0.5; 0.9; 0.99 ]);
        sweep "Injected delay length (paper fixes 100 ms)"
          (List.map
             (fun delay_us ->
               ( Printf.sprintf "delay = %d ms" (delay_us / 1000),
                 { config with delay_us } ))
             [ 10_000; 100_000; 500_000 ]);
        sweep "Single-Role as a soft constraint (paper 5.5 future work)"
          [
            ("hard (default)", config);
            ("soft", { config with single_role_soft = true });
            ("off", { config with use_single_role = false });
          ];
        sweep "Probabilistic delay injection (paper footnote 1)"
          [
            ("p = 1.0 (default)", config);
            ("p = 0.5", { config with delay_probability = 0.5 });
            ("p = 0.2", { config with delay_probability = 0.2 });
          ];
      ];
  }

(* The whole corpus inferred under a randomized deterministic fault plan
   (crashes, a hung thread, spurious wakeups) plus a watchdog demo.  Plan
   seed 29 makes crashes and deadlocks both fire while one app stays
   untouched, so its verdicts can be compared with the no-fault run. *)
let fault_plan =
  Sherlock_sim.Fault.randomized ~seed:29 ~crashes:1 ~hangs:1 ~wakeups:1 ~max_tid:5
    ~max_op:150 ()

let robustness (config : Config.t) =
  let faulted = { config with fault_plan; retries = 1 } in
  let crashes = ref 0 and deadlocks = ref 0 and stalls = ref 0 in
  let unaffected = ref 0 and identical = ref 0 in
  let all_rounds = ref true and verdicts = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let r = Orchestrator.infer ~config:faulted (App.subject a) in
      if List.length r.rounds <> faulted.rounds then all_rounds := false;
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
      (* "Unaffected" is strict: not one plan site fired in any round, not
         merely "no failure", since a fired wakeup perturbs the schedule
         without failing the run. *)
      if !injected = 0 then begin
        incr unaffected;
        let same v1 v2 = Verdict.compare v1 v2 = 0 in
        if List.equal same (infer config a).final r.final then incr identical
      end)
    apps;
  let stall_demo =
    match
      Sherlock_sim.Runtime.run ~seed:7 ~instrument:(Sherlock_sim.Runtime.tracing ())
        ~max_steps:2_000
        (Workload.stress ~workers:6 ~iters:400)
    with
    | _ -> false
    | exception Sherlock_sim.Runtime.Stalled _ -> true
  in
  let plan = String.concat " " (Sherlock_sim.Fault.to_specs fault_plan) in
  one_table "Robustness: corpus inference under a randomized fault plan"
    [ "measure"; "value" ]
    [
      [ Text "fault plan"; Text plan ];
      [ Text "crashed runs"; Int !crashes ];
      [ Text "deadlocked runs"; Int !deadlocks ];
      [ Text "stalled runs"; Int !stalls ];
      [ Text "all rounds completed"; Text (string_of_bool !all_rounds) ];
      [ Text "apps"; Int (List.length apps) ];
      [ Text "final verdicts"; Int !verdicts ];
      [ Text "unaffected apps"; Int !unaffected ];
      [ Text "unaffected apps identical to baseline"; Int !identical ];
      [
        Text "watchdog stalls livelocked stress run"; Text (string_of_bool stall_demo);
      ];
    ]

let checked =
  [
    ("table1", table1); ("table2", table2); ("table3", table3); ("table4", table4);
    ("table5", table5); ("table6", table6); ("table7", table7); ("figure4", figure4);
    ("tables8_9", tables8_9); ("tsvd", tsvd); ("ablation_extras", ablation_extras);
    ("robustness", robustness);
  ]

(* Host wall-clock of the pipeline stages versus a bare run, over the full
   corpus (one round, same seeds).  Context only: it moves with the host. *)
let overhead (config : Config.t) =
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
              Orchestrator.test_seed ~base:config.seed ~round:1 ~test_index:i
            in
            ignore (Sherlock_sim.Runtime.run ~seed ~instrument body))
          a.tests)
      apps
  in
  let infer_all config =
    List.iter
      (fun (a : App.t) -> ignore (Orchestrator.infer ~config (App.subject a)))
      apps
  in
  (* A first, untimed pass warms the code and the heap for every row. *)
  run_all (Sherlock_sim.Runtime.tracing ());
  let bare = time (fun () -> run_all Sherlock_sim.Runtime.no_instrument) in
  let traced = time (fun () -> run_all (Sherlock_sim.Runtime.tracing ())) in
  let full = time (fun () -> infer_all { config with rounds = 1 }) in
  let three_rounds = time (fun () -> infer_all config) in
  let seconds s = Text (Printf.sprintf "%.3f" s) in
  let pct x = Printf.sprintf "%+.0f%%" (100.0 *. ((x /. bare) -. 1.0)) in
  one_table "Section 5.6: Overhead (host time over the full corpus)"
    [ "configuration"; "seconds"; "vs bare" ]
    [
      [ Text "bare execution"; seconds bare; Text "-" ];
      [ Text "tracing"; seconds traced; Text (pct traced) ];
      [ Text "tracing + solving (1 round)"; seconds full; Text (pct full) ];
      [
        Text "3 rounds with delay injection"; seconds three_rounds;
        Text (pct (three_rounds /. 3.0) ^ " per round");
      ];
    ]
