(* Tests for the inference core: the LP encoder on synthetic observations,
   the perturber, the multi-round orchestrator, and report scoring. *)

open Sherlock_trace
open Sherlock_core
open Sherlock_sim

let check = Alcotest.check

let ev ?(target = 1) ?(delayed_by = 0) time tid op =
  Event.make ~time ~tid ~op ~target ~delayed_by ()

let mklog events =
  Log.create ~events ~duration:1_000_000 ~threads:4
    ~volatile_addrs:(Hashtbl.create 1)

let obs_of_logs ?(config = Config.default) logs =
  let obs = Observations.create () in
  List.iter
    (fun log ->
      Observations.add_log obs ~near:config.near ~cap:config.window_cap
        ~refine:config.use_refinement log)
    logs;
  obs

let wf = Opid.write ~cls:"C" "f"

let rf = Opid.read ~cls:"C" "f"

(* --- Observations --- *)

let test_observations_merge () =
  let log () = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log (); log (); log () ] in
  check Alcotest.int "runs" 3 (Observations.runs obs);
  match Observations.windows obs with
  | [ w ] -> check Alcotest.int "merged weight" 3 w.weight
  | ws -> Alcotest.failf "expected one merged window, got %d" (List.length ws)

let test_observations_race_accumulates () =
  let racy = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let obs = obs_of_logs [ racy ] in
  check Alcotest.bool "racy pair recorded" true
    (Observations.is_racy_pair obs (wf, wf));
  check Alcotest.int "one race" 1 (List.length (Observations.racy_pairs obs))

let test_observations_avg_occurrence () =
  let log = mklog [ ev 10 0 wf; ev 20 1 rf; ev 30 1 rf ] in
  let obs = obs_of_logs [ log ] in
  (* Window 1 (ends @20): rf x1; window 2 (ends @30): rf x2. *)
  check (Alcotest.float 1e-9) "avg" 1.5 (Observations.avg_occurrences obs rf);
  check (Alcotest.float 0.0) "oracle" (Oracles.avg_occurrence obs rf)
    (Observations.avg_occurrences obs rf)

(* The per-round occurrence and CV-rank tables agree bit for bit with the
   naive per-op / per-key oracles on every corpus app's observations
   after the default three rounds. *)
let test_tables_match_oracles_corpus () =
  List.iter
    (fun (app : Sherlock_corpus.App.t) ->
      let r = Orchestrator.infer (Sherlock_corpus.App.subject app) in
      let bad, compared = Oracles.table_mismatches r.observations in
      check Alcotest.(list string) (app.id ^ ": mismatches") [] bad;
      check Alcotest.bool (app.id ^ ": compared some") true (compared > 2))
    (Sherlock_corpus.Registry.all ())

let test_observations_candidate_count () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  check Alcotest.int "candidates" 2 (Observations.candidate_count obs)

(* --- Encoder --- *)

let solve_logs ?(config = Config.default) logs =
  fst (Encoder.solve config (obs_of_logs ~config logs))

let test_encoder_flag_pair () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let verdicts = solve_logs [ log ] in
  check Alcotest.bool "write release" true (Verdict.mem wf Verdict.Release verdicts);
  check Alcotest.bool "read acquire" true (Verdict.mem rf Verdict.Acquire verdicts)

let test_encoder_no_protected_infers_nothing () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let verdicts =
    solve_logs ~config:{ Config.default with use_protected = false } [ log ]
  in
  check Alcotest.int "nothing inferred" 0 (List.length verdicts)

let test_encoder_role_property () =
  (* With the property on, a read can never be a release. *)
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let verdicts = solve_logs [ log ] in
  check Alcotest.bool "no read release" false (Verdict.mem rf Verdict.Release verdicts);
  check Alcotest.bool "no write acquire" false (Verdict.mem wf Verdict.Acquire verdicts)

let test_encoder_race_removal () =
  (* A pair observed racing contributes no protected windows. *)
  let racy1 = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let with_reads = mklog [ ev 10 0 wf; ev 30 1 (Opid.write ~cls:"C" "g") ; ev 50 1 wf ] in
  ignore with_reads;
  let verdicts = solve_logs [ racy1 ] in
  check Alcotest.int "nothing inferred from races" 0 (List.length verdicts)

let test_encoder_blind_write_forces_begin () =
  (* A journal written blindly by both sides right after the blocking
     call: the resulting write/write window's acquire side contains only
     the open frame's Begin, which is therefore forced to 1 — the forcing
     pattern the corpus applications rely on. *)
  let b = Opid.enter ~cls:"C" "Wait" and e = Opid.exit ~cls:"C" "Wait" in
  let wj = Opid.write ~cls:"C" "journal" in
  let mk t0 =
    mklog
      [
        ev ~target:3 (t0 + 5) 0 wj;
        ev t0 1 b;
        ev ~target:3 (t0 + 40) 1 wj;
        ev (t0 + 60) 1 e;
      ]
  in
  let verdicts = solve_logs [ mk 100; mk 1000; mk 5000 ] in
  check Alcotest.bool "blocking begin inferred" true
    (Verdict.mem b Verdict.Acquire verdicts)

let test_encoder_single_role_blocks_double () =
  (* A library API cannot be both Begin-acquire and End-release.  Both
     roles are forced by windows with no alternative candidate: a
     read-then-write pair leaves only the End on the release side, and a
     write/write pair leaves only the Begin on the acquire side. *)
  let cls = "System.Threading.Fancy" in
  let b = Opid.enter ~cls "Upgrade" and e = Opid.exit ~cls "Upgrade" in
  let rj = Opid.read ~cls:"C" "j" and wj = Opid.write ~cls:"C" "j" in
  let rk = Opid.read ~cls:"C" "k" and wk = Opid.write ~cls:"C" "k" in
  let log1 =
    mklog [ ev ~target:3 10 0 rj; ev 20 0 e; ev ~target:3 55 1 rj; ev ~target:3 60 1 wj ]
  in
  let log2 =
    mklog [ ev ~target:4 10 0 wk; ev 50 1 b; ev ~target:4 90 1 wk; ev ~target:4 95 1 rk ]
  in
  ignore rk;
  let config = Config.default in
  let verdicts = solve_logs ~config [ log1; log2 ] in
  let both =
    Verdict.mem b Verdict.Acquire verdicts && Verdict.mem e Verdict.Release verdicts
  in
  check Alcotest.bool "not both roles" false both;
  let verdicts_off =
    solve_logs ~config:{ config with use_single_role = false } [ log1; log2 ]
  in
  let both_off =
    Verdict.mem b Verdict.Acquire verdicts_off
    && Verdict.mem e Verdict.Release verdicts_off
  in
  check Alcotest.bool "both roles without constraint" true both_off

let test_encoder_single_role_soft () =
  (* Same forced double-role scenario as above: the soft variant lets
     both roles survive, paying the penalty instead. *)
  let cls = "System.Threading.Fancy" in
  let b = Opid.enter ~cls "Upgrade" and e = Opid.exit ~cls "Upgrade" in
  let rj = Opid.read ~cls:"C" "j" and wj = Opid.write ~cls:"C" "j" in
  let wk = Opid.write ~cls:"C" "k" and rk = Opid.read ~cls:"C" "k" in
  let log1 =
    mklog [ ev ~target:3 10 0 rj; ev 20 0 e; ev ~target:3 55 1 rj; ev ~target:3 60 1 wj ]
  in
  let log2 =
    mklog [ ev ~target:4 10 0 wk; ev 50 1 b; ev ~target:4 90 1 wk; ev ~target:4 95 1 rk ]
  in
  let verdicts =
    solve_logs ~config:{ Config.default with single_role_soft = true } [ log1; log2 ]
  in
  check Alcotest.bool "both roles under soft constraint" true
    (Verdict.mem b Verdict.Acquire verdicts && Verdict.mem e Verdict.Release verdicts)

let test_encoder_stats () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let _, stats = Encoder.solve Config.default (obs_of_logs [ log ]) in
  check Alcotest.bool "windows counted" true (stats.num_windows >= 1);
  check Alcotest.bool "vars counted" true (stats.num_vars >= 2);
  check Alcotest.bool "objective finite" true (Float.is_finite stats.objective)

(* --- Perturber --- *)

let test_perturber_plan () =
  let verdicts =
    [
      { Verdict.op = wf; role = Verdict.Release; probability = 1.0 };
      { Verdict.op = rf; role = Verdict.Acquire; probability = 1.0 };
      { Verdict.op = Opid.exit ~cls:"C" "m"; role = Verdict.Release; probability = 1.0 };
    ]
  in
  let plan = Perturber.of_verdicts ~delay_us:100_000 verdicts in
  check Alcotest.int "two delayed ops" 2 (Perturber.size plan);
  check Alcotest.int "write delayed directly" 100_000 (Perturber.delay_before plan wf);
  check Alcotest.int "acquire not delayed" 0 (Perturber.delay_before plan rf);
  (* An End-release delays the method's entry (the whole call). *)
  check Alcotest.int "end delays begin" 100_000
    (Perturber.delay_before plan (Opid.enter ~cls:"C" "m"));
  check Alcotest.int "end itself not delayed" 0
    (Perturber.delay_before plan (Opid.exit ~cls:"C" "m"))

(* The plan is numbered by op id when [delay_before] is applied: an op
   created afterwards has an id the plan never saw and gets no delay. *)
let test_perturber_later_op () =
  let plan =
    Perturber.of_verdicts ~delay_us:100_000
      [ { Verdict.op = wf; role = Verdict.Release; probability = 1.0 } ]
  in
  let delay_before = Perturber.delay_before plan in
  let later = Opid.write ~cls:"Perturber.Later" (string_of_int (Opid.interned ())) in
  check Alcotest.bool "created after the plan's ops" true (later.id > wf.id);
  check Alcotest.int "later op not delayed" 0 (delay_before later);
  check Alcotest.int "planned op still delayed" 100_000 (delay_before wf)

let test_perturber_empty () =
  check Alcotest.int "empty" 0 (Perturber.size Perturber.empty);
  check Alcotest.int "no delay" 0 (Perturber.delay_before Perturber.empty wf)

(* --- Orchestrator on live programs --- *)

let flag_subject () =
  let test () =
    let flag = Heap.cell ~cls:"O.Flag" ~field:"ready" false in
    let data = Heap.cell ~cls:"O.Flag" ~field:"data" 0 in
    let t =
      Threadlib.create ~delegate:("O.Flag", "Setter") (fun () ->
          Runtime.cpu 100 300;
          Heap.write data 5;
          Heap.write flag true)
    in
    Threadlib.start t;
    Heap.spin_until flag (fun b -> b);
    assert (Heap.read data = 5);
    Threadlib.join t
  in
  { Orchestrator.subject_name = "flag"; tests = [ ("flag", test) ] }

let test_orchestrator_rounds () =
  let config = { Config.default with rounds = 3 } in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  check Alcotest.int "three rounds" 3 (List.length result.rounds);
  check Alcotest.int "first round no delays" 0
    (List.hd result.rounds).delayed_ops;
  check Alcotest.bool "flag write inferred" true
    (Verdict.mem (Opid.write ~cls:"O.Flag" "ready") Verdict.Release result.final);
  check Alcotest.bool "flag read inferred" true
    (Verdict.mem (Opid.read ~cls:"O.Flag" "ready") Verdict.Acquire result.final)

(* Round history is the installed snapshot ring's points, one per round
   and unthrottled, however fast the rounds are. *)
let test_orchestrator_round_points () =
  let module Tsnap = Sherlock_telemetry.Snapshot in
  let ring = Tsnap.create () in
  Tsnap.install ring;
  Fun.protect ~finally:Tsnap.uninstall @@ fun () ->
  ignore (Orchestrator.infer ~config:{ Config.default with rounds = 3 } (flag_subject ()));
  check
    Alcotest.(list string)
    "one point per round"
    [ "round 1"; "round 2"; "round 3" ]
    (List.map (fun (p : Tsnap.point) -> p.p_label) (Tsnap.points ring))

let test_orchestrator_deterministic () =
  let r1 = Orchestrator.infer (flag_subject ()) in
  let r2 = Orchestrator.infer (flag_subject ()) in
  check Alcotest.int "same verdict count" (List.length r1.final)
    (List.length r2.final);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same verdicts" true (Verdict.compare a b = 0))
    r1.final r2.final

let test_orchestrator_accumulate_off () =
  let config = { Config.default with accumulate = false } in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  check Alcotest.int "observations from last round only" 1
    (Observations.runs result.observations)

let test_orchestrator_run_test_logs () =
  let logs = Orchestrator.run_test_logs (flag_subject ()) in
  check Alcotest.int "one log per test" 1 (List.length logs);
  check Alcotest.bool "traced" true (Log.length (List.hd logs) > 0)

let test_probabilistic_delays () =
  (* p = 0 means the plan never fires; the runs behave like round 1. *)
  let config = { Config.default with delay_probability = 0.0; rounds = 3 } in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  check Alcotest.bool "still infers the flag" true
    (Verdict.mem (Opid.write ~cls:"O.Flag" "ready") Verdict.Release result.final)

let test_orchestrator_test_seed () =
  check Alcotest.bool "distinct seeds" true
    (Orchestrator.test_seed ~base:1 ~round:1 ~test_index:0
    <> Orchestrator.test_seed ~base:1 ~round:2 ~test_index:0)

(* --- Supervised orchestration (fault plans, degraded LP) --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The flag test plus two victims that both own a thread with tid 2 — the
   only tid the fault plans below target, so the flag test is provably
   untouched (its world has tids 0 and 1 only). *)
let resilient_subject () =
  let flag_test = List.assoc "flag" (flag_subject ()).tests in
  let pair_test () =
    (* Joins a hung thread: surfaces as Deadlock. *)
    let c = Heap.cell ~cls:"O.Pair" ~field:"n" 0 in
    let mk i =
      Threadlib.create ~delegate:("O.Pair", Printf.sprintf "W%d" i) (fun () ->
          for _ = 1 to 3 do
            Heap.write c (Heap.read c + 1)
          done)
    in
    let t1 = mk 1 and t2 = mk 2 in
    Threadlib.start t1;
    Threadlib.start t2;
    Threadlib.join t1;
    Threadlib.join t2
  in
  let spin_test () =
    (* Spins on a flag set by the hung thread: livelock, surfaces as
       Stalled via the step watchdog. *)
    let done_ = Heap.cell ~cls:"O.Spin" ~field:"done" false in
    let t1 =
      Threadlib.create ~delegate:("O.Spin", "Busy") (fun () -> Runtime.cpu 10 20)
    in
    let t2 =
      Threadlib.create ~delegate:("O.Spin", "Setter") (fun () ->
          Heap.write done_ true)
    in
    Threadlib.start t1;
    Threadlib.start t2;
    Heap.spin_until done_ (fun b -> b);
    Threadlib.join t1;
    Threadlib.join t2
  in
  {
    Orchestrator.subject_name = "resilient";
    tests = [ ("flag", flag_test); ("pair", pair_test); ("spin", spin_test) ];
  }

let hang_tid2_config =
  {
    Config.default with
    fault_plan = Fault.make [ { Fault.tid = 2; op = 1; action = Fault.Hang } ];
    max_steps = 5_000;
    retries = 1;
  }

let find_report name (r : Orchestrator.round_result) =
  List.find
    (fun (rep : Orchestrator.run_report) -> rep.test_name = name)
    r.run_reports

let test_orchestrator_survives_hangs () =
  (* A hang in two of three tests kills neither the round nor the
     inference; the failure classes match the workload shape. *)
  let result = Orchestrator.infer ~config:hang_tid2_config (resilient_subject ()) in
  check Alcotest.int "all rounds ran" Config.default.rounds
    (List.length result.rounds);
  List.iter
    (fun (r : Orchestrator.round_result) ->
      let flag = find_report "flag" r in
      check Alcotest.bool "flag completed" true flag.completed;
      check Alcotest.int "flag untouched" 0 flag.injected;
      check Alcotest.int "flag one attempt" 1 flag.attempts;
      let pair = find_report "pair" r in
      check Alcotest.bool "pair dropped" false pair.completed;
      check Alcotest.int "pair attempts" 2 pair.attempts;
      check Alcotest.bool "pair deadlocked" true
        (List.for_all
           (function Orchestrator.Deadlocked _ -> true | _ -> false)
           pair.failures);
      let spin = find_report "spin" r in
      check Alcotest.bool "spin dropped" false spin.completed;
      check Alcotest.bool "spin stalled" true
        (List.for_all
           (function Orchestrator.Stalled _ -> true | _ -> false)
           spin.failures);
      check Alcotest.int "failed attempts counted" 4
        (Orchestrator.failed_runs r.run_reports);
      check Alcotest.int "two tests lost" 2
        (Orchestrator.incomplete_runs r.run_reports))
    result.rounds;
  check Alcotest.bool "still infers the flag" true
    (Verdict.mem (Opid.write ~cls:"O.Flag" "ready") Verdict.Release result.final)

let test_orchestrator_failures_do_not_leak () =
  (* The dropped tests contribute no observations, and the flag test's
     runs are bitwise identical to the no-fault baseline (its tid-2-keyed
     plan never fires), so the verdicts must equal inferring over the
     flag test alone. *)
  let faulted =
    Orchestrator.infer ~config:hang_tid2_config (resilient_subject ())
  in
  let baseline =
    Orchestrator.infer
      ~config:{ hang_tid2_config with fault_plan = Fault.empty }
      (flag_subject ())
  in
  check Alcotest.int "same verdict count" (List.length baseline.final)
    (List.length faulted.final);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same verdict" true (Verdict.compare a b = 0);
      check (Alcotest.float 0.0) "same probability" a.probability b.probability)
    baseline.final faulted.final

let test_orchestrator_injected_crash_reported () =
  let config =
    {
      Config.default with
      rounds = 1;
      retries = 1;
      fault_plan = Fault.make [ { Fault.tid = 1; op = 1; action = Fault.Crash } ];
    }
  in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  match result.rounds with
  | [ r ] ->
    let rep = find_report "flag" r in
    check Alcotest.bool "dropped" false rep.completed;
    check Alcotest.bool "fault fired every attempt" true (rep.injected >= 2);
    check Alcotest.bool "reported as injected crash" true
      (List.for_all
         (function
           | Orchestrator.Crashed msg ->
             (* The message pinpoints the injected site. *)
             contains msg "tid 1" && contains msg "injected"
           | _ -> false)
         rep.failures);
    check Alcotest.int "no verdicts from nothing" 0 (List.length r.verdicts)
  | rs -> Alcotest.failf "expected one round, got %d" (List.length rs)

let with_lp_fault status f =
  Sherlock_lp.Problem.set_fault (Some status);
  Fun.protect ~finally:(fun () -> Sherlock_lp.Problem.set_fault None) f

let test_encoder_degrades_on_infeasible_lp () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  let healthy, healthy_stats = Encoder.solve Config.default obs in
  check Alcotest.bool "healthy solve not degraded" false healthy_stats.degraded;
  check Alcotest.bool "healthy solve infers" true (healthy <> []);
  List.iter
    (fun status ->
      with_lp_fault status (fun () ->
          (* With previous verdicts: returns them, flagged degraded. *)
          let vs, stats = Encoder.solve ~previous:healthy Config.default obs in
          check Alcotest.bool "degraded" true stats.degraded;
          check Alcotest.bool "status is the cause" true (stats.status = status);
          check Alcotest.bool "objective is nan" true (Float.is_nan stats.objective);
          check Alcotest.int "previous verdicts kept" (List.length healthy)
            (List.length vs);
          List.iter2
            (fun (a : Verdict.t) (b : Verdict.t) ->
              check Alcotest.bool "same verdict" true (Verdict.compare a b = 0))
            healthy vs;
          (* Without previous verdicts: empty, still no exception. *)
          let vs0, stats0 = Encoder.solve Config.default obs in
          check Alcotest.bool "degraded too" true stats0.degraded;
          check Alcotest.int "nothing to fall back on" 0 (List.length vs0)))
    [
      Sherlock_lp.Problem.Infeasible; Sherlock_lp.Problem.Unbounded;
      Sherlock_lp.Problem.Aborted; Sherlock_lp.Problem.Numerical;
    ]

(* Satellite of the pivot-cap fix: a *real* iteration-limit abort (not
   an injected fault) must come back as a degraded round carrying the
   previous verdicts, and the encoder must recover as soon as the cap
   lifts. *)
let test_encoder_degrades_on_pivot_cap () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  let healthy, healthy_stats = Encoder.solve Config.default obs in
  check Alcotest.bool "healthy solve infers" true (healthy <> []);
  check Alcotest.bool "healthy not degraded" false healthy_stats.degraded;
  Fun.protect
    ~finally:(fun () ->
      Sherlock_lp.Simplex.set_pivot_limit Sherlock_lp.Simplex.default_pivot_limit)
    (fun () ->
      Sherlock_lp.Simplex.set_pivot_limit 1;
      let vs, stats = Encoder.solve ~previous:healthy Config.default obs in
      check Alcotest.bool "degraded under the pivot cap" true stats.degraded;
      check Alcotest.bool "status names the cap" true
        (stats.status = Sherlock_lp.Problem.Aborted);
      check Alcotest.bool "objective is nan" true (Float.is_nan stats.objective);
      check Alcotest.int "previous verdicts kept" (List.length healthy)
        (List.length vs);
      List.iter2
        (fun (a : Verdict.t) (b : Verdict.t) ->
          check Alcotest.bool "same verdict" true (Verdict.compare a b = 0))
        healthy vs);
  let again, astats = Encoder.solve ~previous:healthy Config.default obs in
  check Alcotest.bool "recovers once the cap lifts" false astats.degraded;
  check Alcotest.int "verdicts restored" (List.length healthy) (List.length again)

(* A degraded round must not poison the reusable warm-start state: the
   next healthy solve on the same state reproduces the healthy verdicts. *)
let test_warm_state_survives_degraded_solve () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  let state = Encoder.create_state () in
  let healthy, hstats = Encoder.solve ~state Config.default obs in
  check Alcotest.bool "healthy warm solve" false hstats.degraded;
  with_lp_fault Sherlock_lp.Problem.Infeasible (fun () ->
      let vs, stats = Encoder.solve ~state ~previous:healthy Config.default obs in
      check Alcotest.bool "degraded under fault" true stats.degraded;
      check Alcotest.int "previous carried" (List.length healthy) (List.length vs));
  let again, astats = Encoder.solve ~state ~previous:healthy Config.default obs in
  check Alcotest.bool "recovered" false astats.degraded;
  check Alcotest.int "same verdict count" (List.length healthy) (List.length again);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same verdict" true (Verdict.compare a b = 0))
    healthy again

let test_orchestrator_survives_infeasible_lp () =
  (* Every round's LP degrades; the inference still completes all rounds
     and simply carries the (empty) previous verdicts forward. *)
  with_lp_fault Sherlock_lp.Problem.Infeasible (fun () ->
      let result = Orchestrator.infer (flag_subject ()) in
      check Alcotest.int "all rounds ran" Config.default.rounds
        (List.length result.rounds);
      List.iter
        (fun (r : Orchestrator.round_result) ->
          check Alcotest.bool "round degraded" true r.stats.degraded)
        result.rounds;
      check Alcotest.int "no verdicts" 0 (List.length result.final))

(* --- Report / ground truth --- *)

(* The solve-trace report says when and why its solve degraded, instead
   of printing an empty verdict list as if nothing was found. *)
let test_solve_report_degraded () =
  let obs = obs_of_logs [ mklog [ ev 10 0 wf; ev 50 1 rf ] ] in
  let render () =
    let verdicts, stats = Encoder.solve Config.default obs in
    Format.asprintf "%a"
      (fun ppf () -> Report.print_solve ppf ~traces:1 verdicts stats)
      ()
  in
  let sizes = "1 traces, 1 windows, 5 variables\n" in
  check Alcotest.string "healthy"
    (sizes ^ "Releasing sites:\n  Write-C::f\nAcquire sites:\n  Read-C::f\n")
    (render ());
  List.iter
    (fun (status, cause) ->
      with_lp_fault status (fun () ->
          check Alcotest.string cause
            (sizes ^ "degraded: " ^ cause ^ "\nReleasing sites:\nAcquire sites:\n")
            (render ())))
    [
      (Sherlock_lp.Problem.Numerical, "numerical failure");
      (Sherlock_lp.Problem.Aborted, "pivot cap");
    ]

(* The per-round table's LP column follows each round's base solve: App-2's
   round 1 re-solves a rounding pin warm from its own cold base solve, and
   still reads "cold"; round 2 starts from round 1's basis and reads
   "warm". *)
let test_round_table_lp_column () =
  let app =
    List.find
      (fun (a : Sherlock_corpus.App.t) -> a.id = "App-2")
      (Sherlock_corpus.Registry.all ())
  in
  let config = { Config.default with rounds = 2 } in
  let result = Orchestrator.infer ~config (Sherlock_corpus.App.subject app) in
  let r1 = List.hd result.rounds in
  check Alcotest.bool "round 1 re-solved a pin warm" true
    (r1.stats.lp.lp_warm_solves > 0);
  let lines =
    String.split_on_char '\n'
      (Format.asprintf "%a" Report.print_round_metrics result.rounds)
  in
  let header = List.find (String.starts_with ~prefix:"Round") lines in
  let col =
    let rec find i =
      if String.sub header i 4 = "  LP" then i + 2 else find (i + 1)
    in
    find 0
  in
  let lp_cell round =
    let row =
      List.find (String.starts_with ~prefix:(string_of_int round ^ " ")) lines
    in
    List.hd (String.split_on_char ' ' (String.sub row col (String.length row - col)))
  in
  check Alcotest.string "round 1" "cold" (lp_cell 1);
  check Alcotest.string "round 2" "warm" (lp_cell 2)

let truth =
  let open Ground_truth in
  {
    syncs = [ entry wf Verdict.Release "w"; entry rf Verdict.Acquire "r" ];
    racy_fields = [ "C::racy" ];
    error_scope = [ "C.Hidden" ];
    field_guard = [ ("C::guarded", Dispose) ];
  }

let v op role = { Verdict.op; role; probability = 1.0 }

let test_report_classify () =
  let verdicts =
    [
      v wf Verdict.Release;
      v (Opid.read ~cls:"C" "racy") Verdict.Acquire;
      v (Opid.write ~cls:"C.Hidden" "x") Verdict.Release;
      v (Opid.read ~cls:"C" "other") Verdict.Acquire;
    ]
  in
  let r = Report.classify truth verdicts in
  check Alcotest.int "correct" 1 (Report.num_correct r);
  check Alcotest.int "racy" 1 (Report.count r Report.Data_racy);
  check Alcotest.int "instr" 1 (Report.count r Report.Instr_error);
  check Alcotest.int "notsync" 1 (Report.count r Report.Not_sync);
  check Alcotest.int "missed" 1 (List.length r.missed);
  check (Alcotest.float 1e-9) "precision" 0.25 (Report.precision r)

(* Regression: zero inferred verdicts used to render [precision]'s nan as
   "nan%"; the string form must say "n/a" instead. *)
let test_precision_string () =
  let empty = Report.classify truth [] in
  check Alcotest.bool "precision is nan" true (Float.is_nan (Report.precision empty));
  check Alcotest.string "empty renders n/a" "n/a" (Report.precision_string empty);
  let quarter =
    Report.classify truth
      [
        v wf Verdict.Release;
        v (Opid.read ~cls:"C" "racy") Verdict.Acquire;
        v (Opid.write ~cls:"C.Hidden" "x") Verdict.Release;
        v (Opid.read ~cls:"C" "other") Verdict.Acquire;
      ]
  in
  check Alcotest.string "1/4 renders 25%" "25%" (Report.precision_string quarter)

let test_report_role_mismatch_not_correct () =
  let r = Report.classify truth [ v wf Verdict.Acquire ] in
  check Alcotest.int "wrong role not correct" 0 (Report.num_correct r)

let test_fp_causes () =
  let cause op =
    Ground_truth.cause_name (Report.false_positive_cause truth (v op Verdict.Release))
  in
  check Alcotest.string "instr" "Instr. Errors" (cause (Opid.write ~cls:"C.Hidden" "x"));
  check Alcotest.string "double role" "Double Roles"
    (cause (Opid.exit ~cls:"X" "UpgradeToWriterLock"));
  check Alcotest.string "dispose" "Dispose" (cause (Opid.enter ~cls:"X" "Finalize"));
  check Alcotest.string "static" "Static Ctr." (cause (Opid.exit ~cls:"X" ".cctor"));
  check Alcotest.string "other" "Others" (cause (Opid.write ~cls:"X" "y"))

let test_guard_cause () =
  check Alcotest.string "guarded field" "Dispose"
    (Ground_truth.cause_name (Ground_truth.guard_cause truth "C::guarded"));
  check Alcotest.string "unknown field" "Others"
    (Ground_truth.cause_name (Ground_truth.guard_cause truth "C::zzz"))

(* --- Config / verdict --- *)

let test_config_defaults () =
  let c = Config.default in
  check (Alcotest.float 1e-9) "lambda" 0.2 c.lambda;
  check Alcotest.int "near 1s" 1_000_000 c.near;
  check Alcotest.int "cap" 15 c.window_cap;
  check Alcotest.int "delay 100ms" 100_000 c.delay_us;
  check Alcotest.int "rounds" 3 c.rounds

let test_verdict_helpers () =
  let vs = [ v wf Verdict.Release; v rf Verdict.Acquire ] in
  check Alcotest.int "releases" 1 (List.length (Verdict.releases vs));
  check Alcotest.int "acquires" 1 (List.length (Verdict.acquires vs));
  check Alcotest.bool "mem" true (Verdict.mem wf Verdict.Release vs);
  check Alcotest.bool "not mem" false (Verdict.mem wf Verdict.Acquire vs)

(* --- Properties --- *)

let prop_verdicts_respect_threshold =
  QCheck.Test.make ~name:"verdict probabilities reach the threshold" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let log =
        mklog [ ev 10 0 wf; ev (50 + (seed mod 40)) 1 rf ]
      in
      let verdicts = solve_logs [ log ] in
      List.for_all (fun (v : Verdict.t) -> v.probability >= Config.default.threshold)
        verdicts)

let prop_roles_respect_property =
  QCheck.Test.make ~name:"role property always respected" ~count:50
    QCheck.(int_range 0 1000)
    (fun salt ->
      let wg = Opid.write ~cls:"C" (Printf.sprintf "g%d" (salt mod 3)) in
      let rg = Opid.read ~cls:"C" (Printf.sprintf "g%d" (salt mod 3)) in
      let log = mklog [ ev ~target:2 10 0 wg; ev ~target:2 60 1 rg ] in
      let verdicts = solve_logs [ log ] in
      List.for_all
        (fun (v : Verdict.t) ->
          match (v.op.kind, v.role) with
          | (Opid.Read | Opid.Begin), Verdict.Acquire -> true
          | (Opid.Write | Opid.End), Verdict.Release -> true
          | _ -> false)
        verdicts)

(* --- hygiene: fault paths log structurally --- *)

(* The orchestrator's failure handling (retries, drops, degradation,
   LP aborts) must report through Sherlock_telemetry.Log, not ad-hoc
   stderr prints.  Scan the library sources for [eprintf]; skipped when
   the sources aren't visible from the test's working directory. *)
let test_no_eprintf_in_sherlock () =
  let candidates = [ "../lib/sherlock"; "lib/sherlock"; "../../lib/sherlock" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> ()
  | Some dir ->
    let contains_eprintf path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let needle = "eprintf" in
      let nl = String.length needle and sl = String.length s in
      let rec go i =
        i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
      in
      go 0
    in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ml" && contains_eprintf (Filename.concat dir f)
        then
          Alcotest.failf
            "%s/%s uses eprintf; fault paths must emit structured events via \
             Sherlock_telemetry.Log"
            dir f)
      (Sys.readdir dir)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sherlock"
    [
      ( "observations",
        [
          Alcotest.test_case "merge identical windows" `Quick test_observations_merge;
          Alcotest.test_case "races accumulate" `Quick test_observations_race_accumulates;
          Alcotest.test_case "avg occurrence" `Quick test_observations_avg_occurrence;
          Alcotest.test_case "tables match oracles on corpus" `Quick
            test_tables_match_oracles_corpus;
          Alcotest.test_case "candidate count" `Quick test_observations_candidate_count;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "flag pair" `Quick test_encoder_flag_pair;
          Alcotest.test_case "no protected => nothing" `Quick
            test_encoder_no_protected_infers_nothing;
          Alcotest.test_case "role property" `Quick test_encoder_role_property;
          Alcotest.test_case "race removal" `Quick test_encoder_race_removal;
          Alcotest.test_case "blind write forces begin" `Quick
            test_encoder_blind_write_forces_begin;
          Alcotest.test_case "single role" `Quick test_encoder_single_role_blocks_double;
          Alcotest.test_case "single role soft" `Quick test_encoder_single_role_soft;
          Alcotest.test_case "stats" `Quick test_encoder_stats;
        ] );
      ( "perturber",
        [
          Alcotest.test_case "plan" `Quick test_perturber_plan;
          Alcotest.test_case "empty" `Quick test_perturber_empty;
          Alcotest.test_case "op created after the plan" `Quick test_perturber_later_op;
        ] );
      ( "orchestrator",
        [
          Alcotest.test_case "rounds" `Quick test_orchestrator_rounds;
          Alcotest.test_case "deterministic" `Quick test_orchestrator_deterministic;
          Alcotest.test_case "one snapshot point per round" `Quick
            test_orchestrator_round_points;
          Alcotest.test_case "accumulate off" `Quick test_orchestrator_accumulate_off;
          Alcotest.test_case "run_test_logs" `Quick test_orchestrator_run_test_logs;
          Alcotest.test_case "test seeds" `Quick test_orchestrator_test_seed;
          Alcotest.test_case "probabilistic delays" `Quick test_probabilistic_delays;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "survives hangs" `Quick test_orchestrator_survives_hangs;
          Alcotest.test_case "failures don't leak into verdicts" `Quick
            test_orchestrator_failures_do_not_leak;
          Alcotest.test_case "injected crash reported" `Quick
            test_orchestrator_injected_crash_reported;
          Alcotest.test_case "encoder degrades on infeasible LP" `Quick
            test_encoder_degrades_on_infeasible_lp;
          Alcotest.test_case "encoder degrades on pivot cap" `Quick
            test_encoder_degrades_on_pivot_cap;
          Alcotest.test_case "inference survives infeasible LP" `Quick
            test_orchestrator_survives_infeasible_lp;
          Alcotest.test_case "warm state survives degraded solve" `Quick
            test_warm_state_survives_degraded_solve;
        ] );
      ( "report",
        [
          Alcotest.test_case "classify" `Quick test_report_classify;
          Alcotest.test_case "precision string" `Quick test_precision_string;
          Alcotest.test_case "role mismatch" `Quick test_report_role_mismatch_not_correct;
          Alcotest.test_case "fp causes" `Quick test_fp_causes;
          Alcotest.test_case "guard causes" `Quick test_guard_cause;
          Alcotest.test_case "solve report names degradation" `Quick
            test_solve_report_degraded;
          Alcotest.test_case "round table LP column" `Quick
            test_round_table_lp_column;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "verdict helpers" `Quick test_verdict_helpers;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "no eprintf in lib/sherlock" `Quick
            test_no_eprintf_in_sherlock;
        ] );
      ("properties", qcheck [ prop_verdicts_respect_threshold; prop_roles_respect_property ]);
    ]
