(* The command-line front end, mirroring the paper artifact's
   Loop-delay-solve.ps1 workflow: pick an application, run its unit tests
   under instrumentation for a number of rounds, and print the inferred
   releasing/acquire sites.  Additional subcommands expose the race
   detectors and the TSVD comparison. *)

open Cmdliner
open Sherlock_core
open Sherlock_corpus
module Telemetry = Sherlock_telemetry

let find_app name =
  match Registry.find name with
  | app -> app
  | exception Not_found ->
    Printf.eprintf "unknown application %S; try `sherlock list`\n" name;
    exit 2

let app_arg =
  let doc = "Application to analyze (id like App-1 or name like RestSharp)." in
  Arg.(required & opt (some string) None & info [ "a"; "app" ] ~docv:"APP" ~doc)

let rounds_arg =
  let doc = "Number of instrumented rounds per test input." in
  Arg.(value & opt int Config.default.rounds & info [ "r"; "rounds" ] ~docv:"N" ~doc)

let lambda_arg =
  let doc = "Objective trade-off between Mostly-Protected and the other hypotheses." in
  Arg.(value & opt float Config.default.lambda & info [ "lambda" ] ~docv:"L" ~doc)

let near_arg =
  let doc = "Conflicting-access window in virtual microseconds." in
  Arg.(value & opt int Config.default.near & info [ "near" ] ~docv:"US" ~doc)

let seed_arg =
  let doc = "Base seed for the simulated schedules." in
  Arg.(value & opt int Config.default.seed & info [ "seed" ] ~docv:"SEED" ~doc)

let fault_arg =
  let doc =
    "Inject a deterministic fault into every simulated run (repeatable). \
     Specs: $(b,crash:tid=T,op=N), $(b,hang:tid=T,op=N), \
     $(b,wakeup:tid=T,op=N), $(b,delay-factor:F)."
  in
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SPEC" ~doc)

let max_steps_arg =
  let doc =
    "Scheduler-step watchdog per simulated run (0 disables): past this many \
     scheduler picks the run aborts as stalled and is retried."
  in
  Arg.(value & opt int Config.default.max_steps & info [ "max-steps" ] ~docv:"N" ~doc)

let retries_arg =
  let doc = "Reseeded re-runs after a test run crashes, deadlocks or stalls." in
  Arg.(value & opt int Config.default.retries & info [ "retries" ] ~docv:"N" ~doc)

let config_term =
  let make rounds lambda near seed fault_specs max_steps retries =
    let fault_plan =
      match Sherlock_sim.Fault.of_specs fault_specs with
      | Ok plan -> plan
      | Error msg ->
        Printf.eprintf "bad --fault spec: %s\n" msg;
        exit 2
    in
    {
      Config.default with
      rounds;
      lambda;
      near;
      seed;
      fault_plan;
      max_steps;
      retries;
    }
  in
  Term.(
    const make $ rounds_arg $ lambda_arg $ near_arg $ seed_arg $ fault_arg
    $ max_steps_arg $ retries_arg)

let list_cmd =
  let run () =
    let table =
      Sherlock_util.Table.create ~title:"Benchmark applications (paper Table 1)"
        ~header:[ "ID"; "Name"; "LoC"; "#Stars"; "#Tests"; "Unsafe APIs" ]
    in
    List.iter
      (fun (app : App.t) ->
        Sherlock_util.Table.add_row table
          [
            app.id;
            app.name;
            string_of_int app.loc;
            string_of_int app.stars;
            string_of_int (List.length app.tests);
            (if app.uses_unsafe_apis then "yes" else "no");
          ])
      (Registry.all ());
    Sherlock_util.Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark applications.") Term.(const run $ const ())

let infer_run config app_name =
  let app = find_app app_name in
  let result = Orchestrator.infer ~config (App.subject app) in
  (app, result)

let telemetry_out_arg =
  let doc =
    "Write telemetry spans of the run (Chrome trace-event / Perfetto \
     JSON, each span with its CPU time) and one counter point per round \
     to $(docv); also enables the metrics registry."
  in
  Arg.(value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE" ~doc)

(* Run a command body under a span collector when spans are wanted
   ([out], or [keep] for the -v stage table), returning it with the
   body's result.  With [out], the metrics registry is on and a snapshot
   ring is installed unless --metrics-out installed one; the spans and
   the ring's points (one per round, plus any ticks) are exported to
   [out] afterwards. *)
let with_telemetry ~keep out f =
  if out = None && not keep then (f (), None)
  else begin
    let collector = Telemetry.Span.create_collector () in
    let was_enabled = Telemetry.Metrics.enabled () in
    let own_ring =
      match (out, Telemetry.Snapshot.installed ()) with
      | Some _, None ->
        (* Capacity enough to keep one point per round of any
           practical run. *)
        let ring = Telemetry.Snapshot.create ~capacity:1024 () in
        Telemetry.Snapshot.install ring;
        true
      | _ -> false
    in
    Telemetry.Span.set_collector (Some collector);
    if out <> None then Telemetry.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Span.set_collector None;
        if own_ring then Telemetry.Snapshot.uninstall ();
        Telemetry.Metrics.set_enabled was_enabled)
      (fun () ->
        let r = f () in
        Option.iter
          (fun path ->
            let points =
              Option.fold ~none:[] ~some:Telemetry.Snapshot.points
                (Telemetry.Snapshot.installed ())
            in
            Telemetry.Perfetto.write path
              (Telemetry.Perfetto.of_spans collector
              @ Telemetry.Perfetto.of_points
                  ~epoch:(Telemetry.Span.epoch collector)
                  points);
            Printf.printf "wrote %d telemetry spans to %s\n"
              (Telemetry.Span.span_count collector)
              path)
          out;
        (r, Some collector))
  end

(* ------------------------------------------------------------------ *)
(* The always-on metrics plane: --metrics-out installs a snapshot ring
   whose every snapshot atomically rewrites an OpenMetrics file, plus
   runtime GC gauges and a SIGUSR1 on-demand dump; --log-out /
   SHERLOCK_LOG install the structured JSONL log sink.  Orthogonal to
   --telemetry-out (span traces). *)

let metrics_out_arg =
  let doc =
    "Continuously export the metrics registry (every counter, gauge, and \
     histogram) as OpenMetrics text to $(docv), atomically rewritten on \
     each snapshot and once more at exit.  Snapshots happen per inference \
     round, every $(b,--metrics-interval) milliseconds, and on \
     $(b,SIGUSR1).  Render the file with $(b,sherlock stats --from)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_interval_arg =
  let doc =
    "Snapshot interval in milliseconds while inference runs (with \
     $(b,--metrics-out)); 0 keeps only per-round and SIGUSR1 snapshots."
  in
  Arg.(value & opt int 100 & info [ "metrics-interval" ] ~docv:"MS" ~doc)

let log_out_arg =
  let doc =
    "Write structured logs (supervised retries and drops, watchdog stalls, \
     LP degradations and aborts) as JSON lines to $(docv).  The \
     $(b,SHERLOCK_LOG) environment variable (a path, $(b,stderr), or \
     $(b,LEVEL:PATH)) does the same without the flag."
  in
  Arg.(value & opt (some string) None & info [ "log-out" ] ~docv:"FILE" ~doc)

let with_metrics_plane ~metrics_out ~log_out f =
  Telemetry.Log.init_from_env ();
  (match log_out with Some path -> Telemetry.Log.to_file path | None -> ());
  let close_log () = if log_out <> None then Telemetry.Log.close () in
  match metrics_out with
  | None -> Fun.protect ~finally:close_log f
  | Some path ->
    Telemetry.Metrics.set_enabled true;
    Telemetry.Snapshot.install_runtime_gauges ();
    (* Points come once per round, unthrottled, and from the ticker:
       the file is rewritten at most every 100 ms, and always for the
       final point. *)
    let last_write = ref neg_infinity in
    let ring =
      Telemetry.Snapshot.create
        ~on_snapshot:(fun p ->
          if p.p_label = "final" || p.p_ts -. !last_write >= 0.1 then begin
            last_write := p.p_ts;
            (* A full disk or unwritable path must not kill the run the
               plane is observing. *)
            try
              Telemetry.Openmetrics.write_atomic path
                (Telemetry.Openmetrics.of_point p)
            with Sys_error _ -> ()
          end)
        ()
    in
    Telemetry.Snapshot.install ring;
    Telemetry.Snapshot.install_sigusr1 ();
    Fun.protect
      ~finally:(fun () ->
        (* Final snapshot so the exported file reflects the finished
           run, not the last tick. *)
        ignore (Telemetry.Snapshot.take ~label:"final" ring);
        Telemetry.Snapshot.uninstall ();
        Telemetry.Metrics.set_enabled false;
        close_log ())
      f

let trace_format_enum =
  Arg.enum
    [ ("text", Sherlock_trace.Trace_io.Text);
      ("binary", Sherlock_trace.Trace_io.Binary) ]

let provenance_out_arg =
  let doc =
    "Capture end-to-end verdict provenance (evidence windows, LP rows with \
     duals, confidence margins, per-round traces) and write it as a JSON \
     sidecar to $(docv).  Verdicts are identical with or without capture."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "provenance-out" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run config app_name verbose dump_dir trace_format telemetry_out
      provenance_out metrics_out metrics_interval log_out =
    let config =
      if provenance_out <> None then { config with Config.provenance = true }
      else config
    in
    let config =
      if metrics_out <> None then
        { config with Config.metrics_interval_ms = metrics_interval }
      else config
    in
    let (app, result), collector =
      with_metrics_plane ~metrics_out ~log_out (fun () ->
          with_telemetry ~keep:verbose telemetry_out (fun () ->
              infer_run config app_name))
    in
    (match (provenance_out, result.Orchestrator.provenance) with
    | Some path, Some prov ->
      Sherlock_provenance.Provenance.save path prov;
      Printf.printf "wrote provenance for %d verdicts to %s\n"
        (List.length prov.Sherlock_provenance.Provenance.p_verdicts)
        path
    | Some path, None ->
      Printf.eprintf "provenance capture produced nothing; %s not written\n" path
    | None, _ -> ());
    (match dump_dir with
    | None -> ()
    | Some dir ->
      (* The artifact's log-file workflow: one trace file per test. *)
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let ext =
        match trace_format with
        | Sherlock_trace.Trace_io.Text -> "trace"
        | Sherlock_trace.Trace_io.Binary -> "btrace"
      in
      let logs = Orchestrator.run_test_logs ~config (App.subject app) in
      List.iteri
        (fun i log ->
          let name = fst (List.nth app.tests i) in
          let path =
            Filename.concat dir (Printf.sprintf "%s-%s.%s" app.id name ext)
          in
          Sherlock_trace.Trace_io.save ~format:trace_format log path;
          Printf.printf "wrote %s
" path)
        logs);
    if verbose then begin
      List.iter
        (fun (r : Orchestrator.round_result) ->
          Printf.printf
            "round %d: %d windows, %d variables, %d delayed ops, %d verdicts, \
             %d LP solves / %d pivots%s%s%s\n"
            r.round r.stats.num_windows r.stats.num_vars r.delayed_ops
            (List.length r.verdicts) r.stats.lp.lp_solves r.stats.lp.lp_pivots
            (if r.stats.lp.lp_pivots_saved > 0 then
               Printf.sprintf " (%d saved by warm start)"
                 r.stats.lp.lp_pivots_saved
             else "")
            (let failed = Orchestrator.failed_runs r.run_reports in
             if failed > 0 then Printf.sprintf ", %d failed runs" failed else "")
            (if r.stats.degraded then
               Printf.sprintf " [degraded LP: %s]"
                 (Sherlock_lp.Problem.status_name r.stats.status)
             else ""))
        result.rounds;
      Report.print_round_metrics Format.std_formatter result.rounds;
      Option.iter
        (fun c ->
          Report.print_stage_times Format.std_formatter
            (Telemetry.Span.closed_spans c))
        collector;
      Report.print_simulator_summary Format.std_formatter ();
      Report.print_extraction_summary Format.std_formatter ();
      if telemetry_out <> None then
        Format.printf "%a@." Telemetry.Metrics.pp_summary Telemetry.Metrics.default
    end;
    Report.print_run_failures Format.std_formatter result.rounds;
    Report.print_sites Format.std_formatter ~app:app.name result.final app.truth;
    let report = Report.classify app.truth result.final in
    Printf.printf
      "\n%d inferred: %d correct, %d data-racy, %d instrumentation errors, %d not-sync; %d missed; precision %s\n"
      (Report.num_inferred report) (Report.num_correct report)
      (Report.count report Report.Data_racy)
      (Report.count report Report.Instr_error)
      (Report.count report Report.Not_sync)
      (List.length report.missed)
      (Report.precision_string report)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-round statistics.")
  in
  let dump_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-trace" ] ~docv:"DIR"
          ~doc:"Also write one serialized execution trace per test into $(docv).")
  in
  let trace_format =
    Arg.(
      value
      & opt trace_format_enum Sherlock_trace.Trace_io.Text
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "On-disk format for $(b,--dump-trace) files: $(b,text) \
             (line-oriented, diffable) or $(b,binary) (framed, interned, \
             mmap-backed — an order of magnitude faster to load).  Readers \
             auto-detect either.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Infer synchronizations for one application (3 rounds by default).")
    Term.(
      const run $ config_term $ app_arg $ verbose $ dump_dir $ trace_format
      $ telemetry_out_arg $ provenance_out_arg $ metrics_out_arg
      $ metrics_interval_arg $ log_out_arg)

let race_cmd =
  let run config app_name model_name =
    let app, result = infer_run config app_name in
    let subject = App.subject app in
    let logs = Orchestrator.run_test_logs ~config subject in
    let model log =
      match model_name with
      | "manual" -> Sherlock_fasttrack.Sync_model.manual log
      | _ -> Sherlock_fasttrack.Sync_model.inferred result.final
    in
    List.iteri
      (fun i log ->
        let name = fst (List.nth app.tests i) in
        let report = Sherlock_fasttrack.Detector.run (model log) log in
        match Sherlock_fasttrack.Detector.first_race report with
        | None -> Printf.printf "%-32s no race\n" name
        | Some r ->
          Printf.printf "%-32s race on %s (%s)\n" name r.field
            (if Ground_truth.is_racy_field app.truth r.field then "true race"
             else "false alarm"))
      logs
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("manual", "manual"); ("sherlock", "sherlock") ]) "sherlock"
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:"Synchronization model: $(b,manual) or $(b,sherlock).")
  in
  Cmd.v
    (Cmd.info "race" ~doc:"Run the FastTrack race detector over an application's tests.")
    Term.(const run $ config_term $ app_arg $ model)

let tsvd_cmd =
  let run config app_name =
    let app, result = infer_run config app_name in
    if not app.uses_unsafe_apis then
      Printf.printf "%s does not call thread-unsafe collection APIs concurrently.\n"
        app.name
    else begin
      let o = Sherlock_tsvd.Tsvd.analyze ~config (App.subject app) result.final in
      Printf.printf "conflicting unsafe-API pairs: %d\n"
        (List.length o.candidate_pairs);
      Printf.printf "TSVD-inferred happens-before pairs: %d\n" (List.length o.tsvd_hb);
      Printf.printf "SherLock-synchronized pairs: %d\n" (List.length o.sherlock_hb)
    end
  in
  Cmd.v
    (Cmd.info "tsvd" ~doc:"Compare TSVD happens-before inference with SherLock's.")
    Term.(const run $ config_term $ app_arg)

let timeline_cmd =
  let run config app_name out max_flows =
    let app = find_app app_name in
    let subject = App.subject app in
    (* Infer first, so the timeline shows the runs the *final* delay plan
       produces — the schedule the last round's verdicts perturb. *)
    let result = Orchestrator.infer ~config subject in
    let plan =
      if config.Config.use_delays then
        Perturber.of_verdicts ~delay_us:config.delay_us result.final
      else Perturber.empty
    in
    let timelines =
      List.filter_map Fun.id
      @@ List.mapi
        (fun i (name, body) ->
          let hooks, finish = Sherlock_sim.Schedule.recorder () in
          let seed =
            Orchestrator.test_seed ~base:config.seed ~round:(config.rounds + 1)
              ~test_index:i
          in
          match
            Sherlock_sim.Runtime.run ~seed ~hooks
              ~instrument:
                (Sherlock_sim.Runtime.tracing
                   ~delay_before:(Perturber.delay_before plan) ())
              ~fault:config.fault_plan ~max_steps:config.max_steps body
          with
          | log ->
            Some
              {
                Timeline.test_name = name;
                log;
                schedule = finish ~duration:log.Sherlock_trace.Log.duration;
              }
          | exception
              (( Sherlock_sim.Fault.Injected_crash _
               | Sherlock_sim.Runtime.Deadlock _
               | Sherlock_sim.Runtime.Stalled _ ) as e) ->
            (* A failing run loses its timeline but not the export. *)
            Printf.eprintf "timeline: skipping %s: %s\n" name (Printexc.to_string e);
            None)
        subject.tests
    in
    let events =
      Timeline.export ~near:config.near ~max_flows ~app:app.name ~plan timelines
    in
    Telemetry.Perfetto.write out events;
    Printf.printf
      "wrote %s: %d trace events over %d tests (%d delayed ops in plan)\n" out
      (List.length events) (List.length timelines) (Perturber.size plan)
  in
  let app_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application id (App-1) or name.")
  in
  let out =
    Arg.(
      value
      & opt string "sherlock-timeline.json"
      & info [ "telemetry-out"; "o" ] ~docv:"FILE"
          ~doc:"Output file (Chrome trace-event / Perfetto JSON).")
  in
  let max_flows =
    Arg.(
      value & opt int 64
      & info [ "max-flows" ] ~docv:"N"
          ~doc:"Cap on conflicting-access flow arrows per test.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Export a virtual-time Perfetto timeline of an application's \
          instrumented runs: per-thread method frames, scheduler \
          running/blocked intervals, delay-injection markers, and flow \
          arrows between conflicting accesses.")
    Term.(const run $ config_term $ app_pos $ out $ max_flows)

let solve_trace_cmd =
  let run config paths =
    (* The decoupled artifact workflow: solve from dumped trace files. *)
    let obs = Observations.create () in
    List.iter
      (fun path ->
        let log =
          try Sherlock_trace.Trace_io.load path
          with Failure msg | Sys_error msg ->
            Printf.eprintf "cannot read trace %s: %s\n" path msg;
            exit 2
        in
        Observations.add_log obs ~near:config.Config.near ~cap:config.window_cap
          ~refine:config.use_refinement log)
      paths;
    let verdicts, stats = Encoder.solve config obs in
    Report.print_solve Format.std_formatter ~traces:(List.length paths) verdicts
      stats
  in
  let paths =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE" ~doc:"Trace files.")
  in
  Cmd.v
    (Cmd.info "solve-trace"
       ~doc:
         "Solve from serialized trace files (written by run --dump-trace or \
          convert; text and binary formats are auto-detected per file).")
    Term.(const run $ config_term $ paths)

let convert_cmd =
  let run in_path out_path to_format =
    let module Trace_io = Sherlock_trace.Trace_io in
    let log =
      try Trace_io.load in_path
      with Failure msg | Sys_error msg ->
        Printf.eprintf "cannot read trace %s: %s\n" in_path msg;
        exit 2
    in
    let from_format = Trace_io.format_of_file in_path in
    Trace_io.save ~format:to_format log out_path;
    let size path = (Unix.stat path).Unix.st_size in
    Printf.printf "%s (%s, %d events, %d bytes) -> %s (%s, %d bytes)\n" in_path
      (Trace_io.format_name from_format)
      (Sherlock_trace.Log.length log)
      (size in_path) out_path
      (Trace_io.format_name to_format)
      (size out_path)
  in
  let in_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Input trace file (either format, auto-detected).")
  in
  let out_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output path.")
  in
  let to_format =
    Arg.(
      value
      & opt trace_format_enum Sherlock_trace.Trace_io.Binary
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,binary) (default) or $(b,text).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace file between the text and binary formats.  The \
          input format is auto-detected from its magic bytes; every command \
          that reads traces accepts either format.")
    Term.(const run $ in_pos $ out_pos $ to_format)

let explain_cmd =
  let module Prov = Sherlock_provenance.Provenance in
  let run config app_name op_query all from_file json_out flows_out =
    let prov =
      match from_file with
      | Some path -> (
        match Prov.load path with
        | Ok prov -> prov
        | Error msg ->
          Printf.eprintf "cannot read provenance %s: %s\n" path msg;
          exit 2)
      | None -> (
        match app_name with
        | None ->
          Printf.eprintf
            "explain needs an application (-a APP) or a sidecar (--from FILE)\n";
          exit 2
        | Some app_name ->
          let config = { config with Config.provenance = true } in
          let _app, result = infer_run config app_name in
          (match result.Orchestrator.provenance with
          | Some prov -> prov
          | None ->
            Printf.eprintf "inference produced no provenance\n";
            exit 1))
    in
    (match json_out with
    | Some path ->
      Prov.save path prov;
      Printf.printf "wrote provenance JSON to %s\n" path
    | None -> ());
    (match flows_out with
    | Some path ->
      let events = Timeline.evidence_flows prov in
      Telemetry.Perfetto.write path events;
      Printf.printf "wrote %d evidence-flow events to %s\n" (List.length events)
        path
    | None -> ());
    match (op_query, all) with
    | Some q, _ -> (
      match Prov.find prov q with
      | [] ->
        Printf.eprintf "no verdict matches %S (of %d verdicts)\n" q
          (List.length prov.Prov.p_verdicts);
        exit 1
      | matches ->
        List.iter (Format.printf "%a@." Prov.pp_verdict) matches)
    | None, _ ->
      (* With no operation argument the whole tree is the useful default,
         so --all is implied. *)
      Format.printf "%a@." Prov.pp prov
  in
  let app_opt =
    let doc = "Application to analyze (omit when reading --from a sidecar)." in
    Arg.(value & opt (some string) None & info [ "a"; "app" ] ~docv:"APP" ~doc)
  in
  let op_query =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "Operation to explain (substring of the static op name, e.g. \
             $(b,write:Queue.head)).  Omitted: explain every verdict.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Explain every verdict (the default when $(i,OP) is omitted).")
  in
  let from_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Read provenance from a sidecar written by $(b,run \
             --provenance-out) instead of re-running inference.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Also write the provenance JSON sidecar to $(docv).")
  in
  let flows_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flows" ] ~docv:"FILE"
          ~doc:
            "Also write Perfetto flow-arrow annotations linking each \
             verdict's evidence windows into the virtual-time timeline \
             (load together with the $(b,timeline) export).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain inferred verdicts: render the evidence tree (windows -> \
          LP constraints with duals -> rounds) behind each \
          acquire/release verdict, from a fresh provenance-capturing run \
          or a saved sidecar.")
    Term.(
      const run $ config_term $ app_opt $ op_query $ all $ from_file $ json_out
      $ flows_out)

(* ------------------------------------------------------------------ *)
(* sherlock stats: a console summary of a metrics snapshot, shared
   between the live path (run inference, snapshot the registry) and the
   file path (parse an OpenMetrics export written by --metrics-out). *)

(* Reconstruct a snapshot point from a parsed exposition.  The raw
   registry name round-trips through the HELP text the exporter writes
   ("SherLock metric <raw>"); histogram buckets de-cumulate from the
   le-labelled series. *)
let point_of_families (families : Telemetry.Openmetrics.family list) =
  let open Telemetry.Openmetrics in
  let raw_name (f : family) =
    let prefix = "SherLock metric " in
    match f.f_help with
    | Some h when String.length h > String.length prefix
                  && String.sub h 0 (String.length prefix) = prefix ->
      String.sub h (String.length prefix) (String.length h - String.length prefix)
    | _ -> f.f_name
  in
  let ends_with suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  let ts = ref 0.0 and seq = ref 0 in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (f : family) ->
      match f.f_name with
      | "sherlock_snapshot_timestamp_seconds" ->
        (match f.f_samples with s :: _ -> ts := s.s_value | [] -> ())
      | "sherlock_snapshot_seq" ->
        (match f.f_samples with
        | s :: _ -> seq := int_of_float s.s_value
        | [] -> ())
      | _ -> (
        let raw = raw_name f in
        match f.f_type with
        | MCounter -> (
          match f.f_samples with
          | s :: _ -> counters := (raw, int_of_float s.s_value) :: !counters
          | [] -> ())
        | MGauge -> (
          match f.f_samples with
          | s :: _ -> gauges := (raw, int_of_float s.s_value) :: !gauges
          | [] -> ())
        | MHistogram ->
          let buckets = Array.make 63 0 in
          let sum = ref 0.0 and count = ref 0 in
          let cums = ref [] in
          List.iter
            (fun s ->
              if ends_with "_bucket" s.s_series then begin
                match List.assoc_opt "le" s.s_labels with
                | None | Some "+Inf" -> ()
                | Some le -> (
                  match float_of_string_opt le with
                  | None -> ()
                  | Some le ->
                    let idx =
                      if le <= 1.0 then 0
                      else int_of_float (Float.round (Float.log2 le))
                    in
                    if idx >= 0 && idx < Array.length buckets then
                      cums := (idx, int_of_float s.s_value) :: !cums)
              end
              else if ends_with "_sum" s.s_series then sum := s.s_value
              else if ends_with "_count" s.s_series then
                count := int_of_float s.s_value)
            f.f_samples;
          let cums = List.sort compare !cums in
          let prev = ref 0 in
          List.iter
            (fun (i, cum) ->
              buckets.(i) <- cum - !prev;
              prev := cum)
            cums;
          hists :=
            ( raw,
              {
                Telemetry.Metrics.Histogram.e_count = !count;
                e_sum = !sum;
                (* The exposition carries no exact min/max; the renderer
                   treats these as unknown. *)
                e_min = infinity;
                e_max = neg_infinity;
                e_buckets = buckets;
              } )
            :: !hists
        | MUnknown -> ()))
    families;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    Telemetry.Snapshot.p_seq = !seq;
    p_ts = !ts;
    p_label = "file";
    p_counters = sorted !counters;
    p_gauges = sorted !gauges;
    p_hists = sorted !hists;
  }

let utilization_bar ~width frac =
  let frac = Float.max 0.0 (Float.min 1.0 frac) in
  let full = int_of_float (Float.round (frac *. float_of_int width)) in
  String.concat ""
    [ "["; String.make full '#'; String.make (width - full) '-'; "]" ]

(* One-line sparkline over the populated bucket range. *)
let hist_spark (h : Telemetry.Snapshot.hist_summary) =
  let first = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        if !first < 0 then first := i;
        last := i
      end)
    h.e_buckets;
  if !first < 0 then ""
  else begin
    let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                    "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                    "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let peak =
      Array.fold_left max 1 (Array.sub h.e_buckets !first (!last - !first + 1))
    in
    let b = Buffer.create 32 in
    for i = !first to !last do
      let n = h.e_buckets.(i) in
      if n = 0 then Buffer.add_char b ' '
      else
        Buffer.add_string b blocks.(min 7 (n * 8 / peak))
    done;
    Buffer.contents b
  end

let render_stats ppf (p : Telemetry.Snapshot.point) =
  let c name = Option.value ~default:0 (List.assoc_opt name p.p_counters) in
  let g name = Option.value ~default:0 (List.assoc_opt name p.p_gauges) in
  let h name = List.assoc_opt name p.p_hists in
  let hist_sum name = match h name with Some s -> s.e_sum | None -> 0.0 in
  let pr fmt = Format.fprintf ppf fmt in
  let tm = Unix.localtime p.p_ts in
  pr "sherlock stats — snapshot #%d (%s) at %04d-%02d-%02d %02d:%02d:%02d@.@."
    p.p_seq
    (if p.p_label = "" then "unlabelled" else p.p_label)
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
  (* Pipeline stages: extraction counts from the windows.* counters,
     stage CPU seconds from the span.<stage>.cpu_us histograms (one
     observation in microseconds per closed span). *)
  let events = c "windows.events" in
  if events > 0 then begin
    let cpu stage = hist_sum ("span." ^ stage ^ ".cpu_us") /. 1e6 in
    let per_cpu n stage =
      if cpu stage > 0.0 then
        Printf.sprintf "  (%.0f per CPU s of %s)" (float_of_int n /. cpu stage) stage
      else ""
    in
    pr "  pipeline@.";
    pr "    events         %d simulated, %d extracted%s@." (c "sim.events") events
      (per_cpu (c "sim.events") "run");
    pr "    pairs          %d considered, %d capped@." (c "windows.pairs_considered")
      (c "windows.pairs_capped");
    pr "    windows        %d%s@." (c "windows.emitted")
      (per_cpu (c "windows.emitted") "extract");
    if c "windows.races" > 0 then pr "    races          %d@." (c "windows.races");
    pr "    CPU ms         %s@.@."
      (String.concat " / "
         (List.map
            (fun stage -> Printf.sprintf "%s %.1f" stage (1e3 *. cpu stage))
            Report.stages))
  end;
  (* Simulator totals (published by every run). *)
  let runs = c "sim.runs" and sim_events = c "sim.events" in
  if runs > 0 then begin
    pr "  simulator@.";
    pr "    runs           %d, %d events, %d scheduler picks@." runs sim_events
      (c "sim.picks");
    pr "    picks          %d inline, %d suspends@." (c "sim.picks.inline")
      (c "sim.suspends");
    if sim_events > 0 then
      pr "    allocation     %.1f minor words per event@."
        (float_of_int (c "sim.minor_words") /. float_of_int sim_events);
    pr "@."
  end;
  (* The op intern table: one record per distinct op in the process. *)
  if c "opid.interned" > 0 then
    pr "  ops@.    interned       %d distinct ops@.@." (c "opid.interned");
  (* Extraction-cache effectiveness. *)
  let hits = c "windows.span_cache.hit" in
  let misses = c "windows.span_cache.miss" in
  if hits + misses > 0 then begin
    let rate = float_of_int hits /. float_of_int (hits + misses) in
    pr "  extraction@.";
    pr "    span cache     %5.1f%% hit  %s  (%d of %d lookups)@." (100.0 *. rate)
      (utilization_bar ~width:10 rate)
      hits (hits + misses);
    pr "    scan           %d steps, %d open frames visited@.@."
      (c "windows.scan.steps")
      (c "windows.open_frames.visited")
  end;
  (* LP health. *)
  if c "lp.solves" > 0 then begin
    pr "  lp@.";
    pr "    solves         %d (%d warm%s), aborted %d, numerical %d@."
      (c "lp.solves") (c "lp.warm_start.hits")
      (if c "lp.warm_start.pivots_saved" > 0 then
         Printf.sprintf ", saving %d pivots" (c "lp.warm_start.pivots_saved")
       else "")
      (c "lp.aborted") (c "lp.numerical");
    pr "    cold restarts  %d residual, %d dual repair, %d pivot cap@."
      (c "lp.cold_restart.residual")
      (c "lp.cold_restart.dual_repair")
      (c "lp.cold_restart.pivot_cap");
    (match h "lp.pivots" with
    | Some ph when ph.e_count > 0 ->
      pr "    pivots         %d total, per solve p50<=%.0f p95<=%.0f@."
        (c "lp.pivots.total")
        (Telemetry.Metrics.Histogram.percentile ph 0.5)
        (Telemetry.Metrics.Histogram.percentile ph 0.95)
    | _ -> ());
    pr "    factorization  %d refactors, eta file now %d@.@." (c "lp.refactors")
      (g "lp.eta_len")
  end;
  (* Supervision / fault handling. *)
  if c "orch.run.failed" + c "sim.fault.injected" > 0 then begin
    pr "  supervision@.";
    pr "    failed runs    %d (retried %d), degraded rounds %d, injected faults %d@.@."
      (c "orch.run.failed") (c "orch.run.retried") (c "orch.run.degraded")
      (c "sim.fault.injected")
  end;
  (* GC levels (from the runtime gauges; absent in files written without
     the plane). *)
  if g "gc.heap_words" > 0 then begin
    pr "  gc@.";
    pr "    heap           %.1f MW (top %.1f MW), collections %d minor / %d major@.@."
      (float_of_int (g "gc.heap_words") /. 1e6)
      (float_of_int (g "gc.top_heap_words") /. 1e6)
      (g "gc.minor_collections") (g "gc.major_collections")
  end;
  (* Top histograms by observation count; the span.* CPU histograms are
     the pipeline section's. *)
  let top =
    List.filter
      (fun (name, (s : Telemetry.Snapshot.hist_summary)) ->
        s.e_count > 0 && not (String.starts_with ~prefix:"span." name))
      p.p_hists
    |> List.sort (fun (_, (a : Telemetry.Snapshot.hist_summary)) (_, b) ->
           compare b.e_count a.e_count)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let top = take 5 top in
  if top <> [] then begin
    pr "  top histograms@.";
    List.iter
      (fun (name, (s : Telemetry.Snapshot.hist_summary)) ->
        pr "    %-28s n=%-8d mean %-10.1f %s%s@." name s.e_count
          (s.e_sum /. float_of_int s.e_count)
          (if s.e_max > neg_infinity then Printf.sprintf "max %-8.0f " s.e_max
           else "")
          (hist_spark s))
      top
  end

let stats_cmd =
  let run config app_name from_file =
    match from_file with
    | Some path -> (
      match Telemetry.Openmetrics.parse_file path with
      | Error msg ->
        Printf.eprintf "cannot parse OpenMetrics file %s: %s\n" path msg;
        exit 2
      | Ok families ->
        render_stats Format.std_formatter (point_of_families families))
    | None -> (
      match app_name with
      | None ->
        Printf.eprintf
          "stats needs an application (-a APP) or a metrics file (--from FILE)\n";
        exit 2
      | Some app_name ->
        (* Live mode: run inference with the full plane on, then render
           the end-of-run snapshot. *)
        Telemetry.Metrics.set_enabled true;
        Telemetry.Snapshot.install_runtime_gauges ();
        ignore (infer_run config app_name);
        let ring = Telemetry.Snapshot.create ~capacity:1 () in
        render_stats Format.std_formatter
          (Telemetry.Snapshot.take ~label:"live" ring))
  in
  let app_opt =
    let doc = "Application to analyze live (omit when reading --from a file)." in
    Arg.(value & opt (some string) None & info [ "a"; "app" ] ~docv:"APP" ~doc)
  in
  let from_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Render a saved OpenMetrics exposition (written by $(b,run \
             --metrics-out), possibly mid-run) instead of running \
             inference.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render a console summary of SherLock's metrics — per-stage \
          throughput, cache hit rates, LP health, and \
          the busiest histograms — from a live inference run or a saved \
          $(b,--metrics-out) file.")
    Term.(const run $ config_term $ app_opt $ from_file)

let main =
  let doc = "unsupervised synchronization-operation inference (ASPLOS'21 reproduction)" in
  Cmd.group
    (Cmd.info "sherlock" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      run_cmd;
      race_cmd;
      tsvd_cmd;
      solve_trace_cmd;
      convert_cmd;
      timeline_cmd;
      explain_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval main)
