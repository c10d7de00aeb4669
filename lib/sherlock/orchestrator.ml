open Sherlock_sim
module Tspan = Sherlock_telemetry.Span
module Tm = Sherlock_telemetry.Metrics
module Tlog = Sherlock_telemetry.Log
module Tsnap = Sherlock_telemetry.Snapshot

type subject = {
  subject_name : string;
  tests : (string * (unit -> unit)) list;
}

type run_failure =
  | Crashed of string
  | Deadlocked of string
  | Stalled of int

type run_report = {
  test_name : string;
  attempts : int;
  failures : run_failure list;
  injected : int;
  completed : bool;
}

type round_result = {
  round : int;
  verdicts : Verdict.t list;
  stats : Encoder.solve_stats;
  delayed_ops : int;
  run_reports : run_report list;
}

type result = {
  rounds : round_result list;
  final : Verdict.t list;
  observations : Observations.t;
  provenance : Sherlock_provenance.Provenance.t option;
}

let failure_to_string = function
  | Crashed msg -> "crashed: " ^ msg
  | Deadlocked stuck -> "deadlocked: " ^ stuck
  | Stalled steps -> Printf.sprintf "stalled after %d steps" steps

(* Event kind for structured logs: stable, grep-able, one word.
   [Stalled] is the scheduler watchdog firing ([Config.max_steps]). *)
let failure_kind = function
  | Crashed _ -> "crashed"
  | Deadlocked _ -> "deadlocked"
  | Stalled _ -> "watchdog_stalled"

let failed_runs reports =
  List.fold_left (fun acc r -> acc + List.length r.failures) 0 reports

let incomplete_runs reports =
  List.length (List.filter (fun r -> not r.completed) reports)

let injected_faults reports =
  List.fold_left (fun acc r -> acc + r.injected) 0 reports

(* Supervision counters: cold path (at most once per test attempt), so
   recorded unconditionally rather than gated on [Tm.enabled]. *)
let c_failed = Tm.counter "orch.run.failed"

let c_retried = Tm.counter "orch.run.retried"

let c_degraded = Tm.counter "orch.run.degraded"

let test_seed ~base ~round ~test_index = (base * 1_000_003) + (round * 7919) + test_index

let run_one ?(hooks = Runtime.no_hooks) (config : Config.t) ~round ~test_index
    ~attempt plan body =
  let seed = test_seed ~base:config.seed ~round ~test_index in
  (* Retries perturb only the schedule seed; the fault plan stays, so an
     injected fault reproduces while an unlucky organic interleaving gets
     a fresh chance. *)
  let seed = if attempt = 0 then seed else seed lxor (attempt * 0x9e3779b9) in
  let planned = Perturber.delay_before plan in
  let delay_before =
    if config.delay_probability >= 1.0 then planned
    else begin
      (* Probabilistic injection (paper footnote 1): each dynamic
         instance is delayed with probability p, deterministically per
         seed. *)
      let rng = Sherlock_util.Rng.create (seed lxor 0x5eed) in
      fun op ->
        let d = planned op in
        if d > 0 && Sherlock_util.Rng.float rng 1.0 <= config.delay_probability
        then d
        else 0
    end
  in
  Runtime.run ~seed ~hooks
    ~instrument:(Runtime.tracing ~delay_before ())
    ~fault:config.fault_plan ~max_steps:config.max_steps body

(* Run one test and extract its observations.  Returns the extraction
   when some attempt completed, plus a report of every failed attempt.  A failing run — injected crash,
   deadlock, watchdog stall, or a workload exception — never escapes: it
   is recorded and retried up to [config.retries] times with a reseeded
   schedule, and a test whose every attempt fails simply contributes no
   observations. *)
let run_and_extract (config : Config.t) ~round ~plan test_index (name, body) =
  (* Total plan sites fired across all attempts of this test: an app whose
     count stays 0 everywhere was provably untouched by the plan (the
     lookup consumes no scheduler randomness), which is what the
     baseline-identity checks under a fault plan key on. *)
  let injected = ref 0 in
  let hooks =
    {
      Runtime.no_hooks with
      on_fault = (fun ~tid:_ ~op:_ ~action:_ ~time:_ -> incr injected);
    }
  in
  let rec attempt_run attempt failures =
    let outcome =
      Tspan.with_span ~name:"run"
        ~attrs:
          [
            ("test", Tspan.Str name);
            ("round", Tspan.Int round);
            ("attempt", Tspan.Int attempt);
          ]
        (fun () ->
          match run_one ~hooks config ~round ~test_index ~attempt plan body with
          | log ->
            Tspan.add_attr "events" (Tspan.Int (Sherlock_trace.Log.length log));
            Ok log
          | exception Fault.Injected_crash { tid; op } ->
            Error (Crashed (Printf.sprintf "injected fault in tid %d at op %d" tid op))
          | exception Runtime.Deadlock stuck -> Error (Deadlocked stuck)
          | exception Runtime.Stalled { steps; _ } -> Error (Stalled steps)
          | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
          | exception e -> Error (Crashed (Printexc.to_string e)))
    in
    match outcome with
    | Ok log ->
      let x =
        Tspan.with_span ~name:"extract"
          ~attrs:[ ("test", Tspan.Str name); ("round", Tspan.Int round) ]
          (fun () ->
            Observations.extract_log ~near:config.near ~cap:config.window_cap
              ~refine:config.use_refinement log)
      in
      ( Some x,
        {
          test_name = name;
          attempts = attempt + 1;
          failures = List.rev failures;
          injected = !injected;
          completed = true;
        } )
    | Error f ->
      Tm.Counter.incr c_failed;
      Tlog.warn "orch.run.failed"
        [
          ("test", Tlog.Str name);
          ("round", Tlog.Int round);
          ("attempt", Tlog.Int attempt);
          ("kind", Tlog.Str (failure_kind f));
          ("detail", Tlog.Str (failure_to_string f));
        ];
      if attempt < config.retries then begin
        Tm.Counter.incr c_retried;
        Tlog.info "orch.run.retry"
          [
            ("test", Tlog.Str name);
            ("round", Tlog.Int round);
            ("next_attempt", Tlog.Int (attempt + 1));
            ("retries_left", Tlog.Int (config.retries - attempt - 1));
          ];
        attempt_run (attempt + 1) (f :: failures)
      end
      else begin
        Tlog.error "orch.run.dropped"
          [
            ("test", Tlog.Str name);
            ("round", Tlog.Int round);
            ("attempts", Tlog.Int (attempt + 1));
            ("kind", Tlog.Str (failure_kind f));
          ];
        ( None,
          {
            test_name = name;
            attempts = attempt + 1;
            failures = List.rev (f :: failures);
            injected = !injected;
            completed = false;
          } )
      end
  in
  attempt_run 0 []

let infer ?(config = Config.default) subject =
  Tspan.with_span ~name:"infer"
    ~attrs:
      [
        ("subject", Tspan.Str subject.subject_name);
        ("tests", Tspan.Int (List.length subject.tests));
        ("rounds", Tspan.Int config.rounds);
      ]
  @@ fun () ->
  let obs = ref (Observations.create ()) in
  let plan = ref Perturber.empty in
  let rounds = ref [] in
  (* Per-round provenance traces, newest first; empty (and never consed
     onto) unless [config.provenance] — the disabled path allocates
     nothing beyond this one ref. *)
  let prov_rounds = ref [] in
  (* One encoder state for the whole inference: round k+1's LP solve
     warm-starts from round k's basis and re-encodes only new windows. *)
  let state = Encoder.create_state () in
  let tests = Array.of_list subject.tests in
  (* The snapshot ticker runs only while inference does: started here
     (no-op when the interval is 0 or no ring is installed) and stopped
     in the [finally], so a finished inference leaves no live
     systhread. *)
  if config.metrics_interval_ms > 0 then
    Tsnap.start_ticker ~interval_ms:config.metrics_interval_ms ();
  Fun.protect
    ~finally:(fun () ->
      if config.metrics_interval_ms > 0 then Tsnap.stop_ticker ())
  @@ fun () ->
  for round = 1 to config.rounds do
    Tspan.with_span ~name:"round" ~attrs:[ ("round", Tspan.Int round) ]
    @@ fun () ->
    if not config.accumulate then obs := Observations.create ();
    let results = Array.mapi (run_and_extract config ~round ~plan:!plan) tests in
    (* Merge in test order.  Tests whose every attempt failed contribute
       nothing but their report. *)
    Tspan.with_span ~name:"merge" (fun () ->
        Array.iter
          (fun (extraction, _report) ->
            Option.iter (Observations.add_extraction !obs) extraction)
          results);
    let run_reports = Array.to_list (Array.map snd results) in
    let previous =
      match !rounds with r :: _ -> r.verdicts | [] -> []
    in
    let verdicts, stats = Encoder.solve ~state ~previous config !obs in
    if stats.degraded then begin
      Tm.Counter.incr c_degraded;
      Tlog.warn "orch.lp.degraded"
        [
          ("round", Tlog.Int round);
          ("windows", Tlog.Int stats.num_windows);
          ("vars", Tlog.Int stats.num_vars);
        ]
    end;
    rounds :=
      { round; verdicts; stats; delayed_ops = Perturber.size !plan; run_reports }
      :: !rounds;
    (if config.provenance then
       let module P = Sherlock_provenance.Provenance in
       (* [!plan] is still the plan this round ran under: the reassignment
          below installs the *next* round's plan. *)
       prov_rounds :=
         {
           P.r_round = round;
           r_windows_after = Observations.window_count !obs;
           r_objective = stats.objective;
           r_degraded = stats.degraded;
           r_verdicts =
             List.map
               (fun (v : Verdict.t) ->
                 (Sherlock_trace.Opid.to_string v.op, Verdict.role_name v.role))
               verdicts;
           r_delays =
             List.map
               (fun (op, us) -> (Sherlock_trace.Opid.to_string op, us))
               (Perturber.bindings !plan);
         }
         :: !prov_rounds);
    Tlog.info "orch.round"
      [
        ("round", Tlog.Int round);
        ("windows", Tlog.Int stats.num_windows);
        ("vars", Tlog.Int stats.num_vars);
        ("verdicts", Tlog.Int (List.length verdicts));
        ("failed_runs", Tlog.Int (failed_runs run_reports));
        ("degraded", Tlog.Bool stats.degraded);
      ];
    ignore (Tsnap.take_installed ~label:(Printf.sprintf "round %d" round) ());
    plan :=
      (if config.use_delays then Perturber.of_verdicts ~delay_us:config.delay_us verdicts
       else Perturber.empty);
    Tspan.add_attr "windows" (Tspan.Int stats.num_windows);
    Tspan.add_attr "vars" (Tspan.Int stats.num_vars);
    Tspan.add_attr "verdicts" (Tspan.Int (List.length verdicts));
    Tspan.add_attr "delayed_ops" (Tspan.Int (Perturber.size !plan));
    Tspan.add_attr "failed_runs" (Tspan.Int (failed_runs run_reports));
    if stats.degraded then Tspan.add_attr "degraded" (Tspan.Bool true)
  done;
  let rounds = List.rev !rounds in
  let final = match List.rev rounds with last :: _ -> last.verdicts | [] -> [] in
  let provenance =
    if not config.provenance then None
    else begin
      let module P = Sherlock_provenance.Provenance in
      let ptraces = List.rev !prov_rounds (* chronological *) in
      let last_round =
        match !prov_rounds with rt :: _ -> rt.P.r_round | [] -> 0
      in
      (* Evidence from the newest round that actually solved: a degraded
         final round carries the previous round's verdicts, whose
         evidence is the previous round's. *)
      let evidence =
        let rec newest_good = function
          | [] -> []
          | (r : round_result) :: rest ->
            if r.stats.Encoder.degraded then newest_good rest
            else r.stats.Encoder.evidence
        in
        newest_good (List.rev rounds)
      in
      (* A window with id [w] entered the observations during the first
         round whose post-merge watermark covers it. *)
      let round_of_window id =
        let rec go = function
          | [] -> last_round
          | (rt : P.round_trace) :: rest ->
            if id < rt.P.r_windows_after then rt.P.r_round else go rest
        in
        go ptraces
      in
      let has rt key = List.mem key rt.P.r_verdicts in
      let first_round key =
        match List.find_opt (fun rt -> has rt key) ptraces with
        | Some rt -> rt.P.r_round
        | None -> last_round
      in
      (* Smallest r such that the verdict held in every round r..last:
         walk newest-to-oldest while it stays present. *)
      let stable_round key =
        let rec go stable = function
          | [] -> stable
          | rt :: rest -> if has rt key then go rt.P.r_round rest else stable
        in
        go last_round !prov_rounds
      in
      let p_verdicts =
        List.map
          (fun (v : Verdict.t) ->
            let op = Sherlock_trace.Opid.to_string v.op in
            let role = Verdict.role_name v.role in
            let key = (op, role) in
            let base =
              match
                List.find_opt
                  (fun (e : P.verdict_evidence) -> e.P.v_op = op && e.P.v_role = role)
                  evidence
              with
              | Some e -> e
              | None ->
                (* Verdict carried across degraded rounds with no solved
                   evidence in any round: keep the verdict itself visible
                   in the sidecar rather than dropping it. *)
                {
                  P.v_op = op;
                  v_role = role;
                  v_probability = v.probability;
                  v_margin = nan;
                  v_reduced_cost = nan;
                  v_first_round = 0;
                  v_stable_round = 0;
                  v_windows = [];
                  v_constraints = [];
                }
            in
            {
              base with
              P.v_first_round = first_round key;
              v_stable_round = stable_round key;
              v_windows =
                List.map
                  (fun (w : P.window_evidence) ->
                    { w with P.w_round = round_of_window w.P.w_id })
                  base.P.v_windows;
            })
          final
      in
      Some
        {
          P.p_app = subject.subject_name;
          p_seed = config.seed;
          p_rounds = ptraces;
          p_verdicts;
        }
    end
  in
  { rounds; final; observations = !obs; provenance }

let run_test_logs ?(config = Config.default) subject =
  List.mapi
    (fun test_index (_name, body) ->
      run_one config ~round:1 ~test_index ~attempt:0 Perturber.empty body)
    subject.tests
