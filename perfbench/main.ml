(* The benchmark runner: one workload per process, closed loop, one item
   at a time on one domain.

     main.exe --workload corpus --seed 42 --seconds 10 --trace 0
     main.exe --smoke BENCHMARK.json

   An untraced run ([--trace 0]) prints the end-to-end metrics; a traced
   run ([--trace 1]) also replays every item layer by layer and prints the
   per-layer metrics.  Either way the last line of standard output is one
   JSON object with [correct], [attempted], [failed] and [metrics]; the
   lines before it are context.  README.md has the workload and metric
   tables. *)

module Json = Sherlock_provenance.Json
module Stats = Sherlock_util.Stats

(* --- Declared metrics --------------------------------------------------- *)

(* End-to-end metrics, printed by every untraced run.  CPU time, not
   wall-clock: wall-clock on a shared host swings by tens of percent. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("item_cpu_ms.p50", "ms");
    ("events_per_cpu_s", "events/s");
    ("peak_heap_mb", "MB");
  ]

(* Per-layer metrics, printed by every traced run, grouped by layer.  Each
   group lists the (end-to-end metric, workload) pairs it should move; an
   empty list marks a context-only group. *)
let layer_groups =
  [
    ( "sim",
      [ ("item_cpu_ms.p50", "stress"); ("events_per_cpu_s", "stress") ],
      [
        ("sim.calls", "count"); ("sim.cpu_s", "s"); ("sim.events", "count");
        ("sim.events_per_cpu_s", "events/s"); ("sim.failed", "count");
      ] );
    ( "trace_io",
      [ ("item_cpu_ms.p50", "trace-files"); ("events_per_cpu_s", "trace-files") ],
      [
        ("trace_io.save_text.cpu_s", "s"); ("trace_io.save_binary.cpu_s", "s");
        ("trace_io.load_text.cpu_s", "s"); ("trace_io.load_binary.cpu_s", "s");
        ("trace_io.text_bytes", "bytes"); ("trace_io.binary_bytes", "bytes");
        ("trace_io.load_text.events_per_cpu_s", "events/s");
        ("trace_io.load_binary.events_per_cpu_s", "events/s");
      ] );
    ( "windows",
      [
        ("item_cpu_ms.p50", "synth-200k"); ("events_per_cpu_s", "synth-200k");
        ("item_cpu_ms.p50", "stress");
      ],
      [
        ("windows.calls", "count"); ("windows.cpu_s", "s");
        ("windows.events", "count"); ("windows.pairs_considered", "count");
        ("windows.pairs_capped", "count"); ("windows.emitted", "count");
        ("windows.races", "count"); ("windows.yield", "ratio");
        ("windows.span_cache.hit_rate", "ratio");
      ] );
    ( "observations",
      [ ("item_cpu_ms.p50", "synth-200k"); ("peak_heap_mb", "synth-200k") ],
      [
        ("observations.cpu_s", "s"); ("observations.merged", "count");
        ("observations.candidates", "count"); ("observations.racy_pairs", "count");
        ("observations.merge_ratio", "ratio");
      ] );
    ( "encoder",
      [ ("item_cpu_ms.p50", "corpus"); ("events_per_cpu_s", "corpus") ],
      [
        ("encoder.calls", "count"); ("encoder.cpu_s", "s"); ("encoder.vars", "count");
        ("encoder.windows", "count"); ("encoder.degraded", "count");
      ] );
    ( "lp",
      [ ("item_cpu_ms.p50", "corpus") ],
      [
        ("lp.solves", "count"); ("lp.pivots", "count"); ("lp.warm_solves", "count");
        ("lp.cold_restarts", "count"); ("lp.refactors", "count");
        ("lp.eta_len_max", "count"); ("lp.bound_rows_saved", "count");
        ("lp.pivots_per_solve", "ratio");
      ] );
    ( "perturber",
      [ ("item_cpu_ms.p50", "corpus"); ("item_cpu_ms.p50", "stress") ],
      [ ("perturber.cpu_s", "s"); ("perturber.delayed_ops", "count") ] );
    ( "gc",
      [
        ("peak_heap_mb", "synth-200k"); ("item_cpu_ms.p50", "synth-200k");
        ("item_cpu_ms.p50", "stress"); ("item_cpu_ms.p50", "trace-files");
      ],
      [
        ("gc.minor_words", "words"); ("gc.promoted_words", "words");
        ("gc.major_collections", "count");
      ] );
    ( "trace",
      [],
      [ ("trace.cpu_s", "s"); ("trace.overhead_pct", "%"); ("trace.covered_pct", "%") ]
    );
  ]

let per_layer = List.concat_map (fun (_, _, metrics) -> metrics) layer_groups

(* --- Per-layer values of a traced run ----------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [traced] recorded the layer-by-layer items, [untraced] the same items
   through the public entry points. *)
let layer_metrics ~traced ~untraced =
  let self = Layers.self_cpu traced in
  let c = Layers.count traced in
  let traced_cpu = Layers.root_cpu traced in
  (* Self time of the pipeline's layers; the rest is the benchmark's own
     per-item and per-round loop. *)
  let covered =
    List.fold_left
      (fun acc (name, _) ->
        if Filename.check_suffix name ".cpu_s" && name <> "trace.cpu_s" then
          acc +. self (Filename.chop_suffix name ".cpu_s")
        else acc)
      0.0 per_layer
  in
  let value name =
    match name with
    | "sim.events_per_cpu_s" -> ratio (c "sim.events") (self "sim")
    | "trace_io.load_text.events_per_cpu_s" ->
      ratio (c "trace_io.events") (self "trace_io.load_text")
    | "trace_io.load_binary.events_per_cpu_s" ->
      ratio (c "trace_io.events") (self "trace_io.load_binary")
    | "windows.yield" -> ratio (c "windows.emitted") (c "windows.pairs_considered")
    | "windows.span_cache.hit_rate" ->
      ratio (c "windows.span_cache.hit")
        (c "windows.span_cache.hit" +. c "windows.span_cache.miss")
    | "observations.merge_ratio" ->
      ratio (c "observations.merged") (c "windows.emitted")
    | "lp.pivots_per_solve" -> ratio (c "lp.pivots") (c "lp.solves")
    | "trace.cpu_s" -> traced_cpu
    | "trace.overhead_pct" ->
      100.0 *. (ratio traced_cpu (Layers.root_cpu untraced) -. 1.0)
    | "trace.covered_pct" -> 100.0 *. ratio covered traced_cpu
    | _ when Filename.check_suffix name ".cpu_s" ->
      self (Filename.chop_suffix name ".cpu_s")
    | _ -> c name
  in
  List.map (fun (name, unit) -> (name, value name, unit)) per_layer

(* --- One run ------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  context : string list;
}

let to_json r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float r.attempted));
         ("failed", Json.Num (float r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                r.metrics) );
       ])

(* Nearest-rank percentile of a non-empty array. *)
let percentile xs p =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(max 0 (int_of_float (Float.ceil (p *. float (Array.length s))) - 1))

let peak_heap_mb () =
  float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8) /. 1e6

let run (Workloads.W (name, spec)) ~seed ~seconds ~trace ~setups ~perfetto =
  (* Every set-up and every item starts from a collected heap, outside
     its timing: one item's garbage is neither charged to the next nor
     stacked into its peak, and major-GC work an item leaves unfinished is
     not charged to it either.  Set-up runs several times and reports the
     median, so that work moved into set-up shows in its own metric. *)
  let setup_cpu = Array.make setups 0.0 and last = ref None in
  for k = 0 to setups - 1 do
    last := None;
    Gc.full_major ();
    let c0 = Sys.time () in
    last := Some (spec.Workloads.setup ~seed);
    setup_cpu.(k) <- Sys.time () -. c0
  done;
  let x, setup_mismatches = Option.get !last in
  let n = spec.items ~seconds in
  let untraced = Layers.create () and traced = Layers.create () in
  let item_cpu = Array.make n 0.0 and item_rate = Array.make n 0.0 in
  let first_digest = Hashtbl.create 16 in
  let failed = ref 0 and failures = ref 0 in
  let mismatches = ref setup_mismatches and events = ref 0 in
  let correct = ref 0 and inferred = ref 0 in
  let run_untraced i =
    Gc.full_major ();
    let c0 = Layers.root_cpu untraced in
    let o = spec.untraced untraced x i in
    let cpu = Layers.root_cpu untraced -. c0 in
    item_cpu.(i) <- cpu;
    item_rate.(i) <- ratio (float o.events) cpu;
    events := !events + o.events;
    correct := !correct + o.correct;
    inferred := !inferred + o.inferred;
    o
  in
  let run_traced i =
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let o = spec.traced traced x i in
    let g1 = Gc.quick_stat () in
    Layers.add traced "gc.minor_words" (g1.minor_words -. g0.minor_words);
    Layers.add traced "gc.promoted_words" (g1.promoted_words -. g0.promoted_words);
    Layers.add traced "gc.major_collections"
      (float (g1.major_collections - g0.major_collections));
    o
  in
  (* An item counts as failed when either path had a failed run, a
     degraded LP round, or a round-trip mismatch.  Its digest must match
     the other path's and that of any earlier item on the same input. *)
  let settle i (outcomes : Workloads.outcome list) =
    let f = List.fold_left (fun acc (o : Workloads.outcome) -> acc + o.failures) 0 outcomes in
    failures := !failures + f;
    if f > 0 then incr failed;
    List.iter
      (fun (o : Workloads.outcome) ->
        mismatches := !mismatches + o.mismatches;
        match Hashtbl.find_opt first_digest (spec.input i) with
        | Some d -> if d <> o.digest then incr mismatches
        | None -> Hashtbl.add first_digest (spec.input i) o.digest)
      outcomes
  in
  let wall0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    if not trace then settle i [ run_untraced i ]
    else if i mod 2 = 0 then begin
      (* Alternate which path goes first, so neither always inherits the
         other's warm caches. *)
      let a = run_untraced i in
      settle i [ a; run_traced i ]
    end
    else begin
      let b = run_traced i in
      settle i [ run_untraced i; b ]
    end
  done;
  let wall = Unix.gettimeofday () -. wall0 in
  (* An untraced run re-checks its first items through the layer-by-layer
     path, outside the timed pass. *)
  if not trace then
    for i = 0 to min n spec.replays - 1 do
      let o = spec.traced (Layers.create ()) x i in
      mismatches := !mismatches + o.mismatches;
      if Some o.digest <> Hashtbl.find_opt first_digest (spec.input i) then
        incr mismatches
    done;
  if trace then Layers.write_perfetto traced perfetto;
  let context =
    [
      Printf.sprintf "workload %s, seed %d: %d items, %d events, cpu %.3f s, wall %.3f s"
        name seed n !events (Layers.root_cpu untraced) wall;
      Printf.sprintf "item_cpu_ms: p50 %.3f, p95 %.3f over %d samples (%d beyond p95)"
        (1000.0 *. Stats.median (Array.to_list item_cpu))
        (1000.0 *. percentile item_cpu 0.95)
        n
        (n - int_of_float (Float.ceil (0.95 *. float n)));
      Printf.sprintf "failed_share %g (%d failures in %d items), verdict_mismatches %d"
        (ratio (float !failures) (float n))
        !failures n !mismatches;
    ]
    @ (if !inferred > 0 then
         [
           Printf.sprintf "precision %.4f (%d correct of %d inferred, all items)"
             (ratio (float !correct) (float !inferred))
             !correct !inferred;
         ]
       else [])
    @ if trace then [ Printf.sprintf "perfetto trace: %s" perfetto ] else []
  in
  {
    correct = !mismatches = 0;
    attempted = n;
    failed = !failed;
    metrics =
      (if trace then layer_metrics ~traced ~untraced
       else
         [
           ("setup_s", Stats.median (Array.to_list setup_cpu), "s");
           ("item_cpu_ms.p50", 1000.0 *. Stats.median (Array.to_list item_cpu), "ms");
           ("events_per_cpu_s", Stats.median (Array.to_list item_rate), "events/s");
           ("peak_heap_mb", peak_heap_mb (), "MB");
         ]);
    context;
  }

(* --- Smoke pass ---------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let name_ok s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* Counts the layers must repeat exactly from run to run: everything under
   lp, windows and observations except CPU-derived values, plus the
   simulator's event count. *)
let exact_count (name, _, _) =
  let under p = String.starts_with ~prefix:p name in
  (under "lp." || under "windows." || under "observations." || name = "sim.events")
  && not (Filename.check_suffix name "cpu_s")

(* Every workload once at its smallest size, untraced and traced, with all
   correctness checks on; then the declarations in [bench_json] are
   checked against what the runs printed. *)
let smoke bench_json =
  let errors = ref [] in
  let check ok fmt =
    Printf.ksprintf (fun msg -> if not ok then errors := msg :: !errors) fmt
  in
  let decl =
    match Json.of_string (read_file bench_json) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" bench_json e)
  in
  let str = function Json.Str s -> s | _ -> "" in
  let declared key field =
    List.map (fun m -> str (Json.member field m)) (Json.to_list (Json.member key decl))
  in
  let pairs key = List.combine (declared key "name") (declared key "unit") in
  let workloads = declared "workloads" "name" in
  let sorted l = List.sort compare l in
  let dir = Filename.temp_dir "perfbench" "smoke" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let all = Workloads.all ~dir Workloads.Smoke in
  check
    (sorted workloads = sorted (List.map (fun (Workloads.W (n, _)) -> n) all))
    "declared workloads differ from the runner's";
  check (sorted (pairs "end_to_end") = sorted end_to_end)
    "declared end_to_end metrics differ from the runner's";
  check (sorted (pairs "per_layer") = sorted per_layer)
    "declared per_layer metrics differ from the runner's";
  List.iter
    (fun n -> check (name_ok n) "bad name %S" n)
    (workloads @ List.map fst end_to_end @ List.map fst per_layer);
  List.iter
    (fun (group, moves, metrics) ->
      List.iter
        (fun (m, _) ->
          check (String.starts_with ~prefix:(group ^ ".") m) "%s is not in group %s" m group)
        metrics;
      List.iter
        (fun (m, w) ->
          check (List.mem_assoc m end_to_end) "%s moves undeclared metric %s" group m;
          check (List.mem w workloads) "%s moves undeclared workload %s" group w)
        moves)
    layer_groups;
  (* The printed line, parsed back: correct, nothing failed, and exactly
     the expected metric names with their units. *)
  let check_printed label r expected =
    match Json.of_string (to_json r) with
    | Error e -> check false "%s: result line does not parse: %s" label e
    | Ok j ->
      check (Json.member "correct" j = Json.Bool true) "%s: not correct" label;
      check (Json.member "failed" j = Json.Num 0.0) "%s: failed items" label;
      let printed =
        match Json.member "metrics" j with
        | Json.Obj fields ->
          List.map (fun (n, m) -> (n, str (Json.member "unit" m))) fields
        | _ -> []
      in
      check (sorted printed = sorted expected) "%s: printed metrics differ from declared"
        label
  in
  let run_smoke ~trace w =
    run w ~seed:42 ~seconds:0 ~trace ~setups:1
      ~perfetto:(Filename.concat dir "smoke.perfetto.json")
  in
  List.iter
    (fun (Workloads.W (name, _) as w) ->
      check_printed (name ^ " untraced") (run_smoke ~trace:false w) end_to_end;
      check_printed (name ^ " traced") (run_smoke ~trace:true w) per_layer;
      match Json.of_string (read_file (Filename.concat dir "smoke.perfetto.json")) with
      | Ok j ->
        check (Json.to_list (Json.member "traceEvents" j) <> []) "%s: empty trace" name
      | Error e -> check false "%s: Perfetto file does not parse: %s" name e)
    all;
  (* Two traced corpus runs in one process repeat their counts exactly. *)
  let counts () =
    List.filter exact_count (run_smoke ~trace:true (List.hd all)).metrics
  in
  let first = counts () in
  check (first <> [] && first = counts ()) "traced corpus counts differ between runs";
  match !errors with
  | [] -> print_endline "perfbench smoke: ok"
  | errs ->
    List.iter (fun e -> prerr_endline ("perfbench smoke: " ^ e)) (List.rev errs);
    exit 1

(* --- Command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let smoke_file = ref "" in
  let usage =
    "main.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n\
     main.exe --smoke BENCHMARK.json"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "N run length in seconds (default 10)");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 replay the items layer by layer (Perfetto trace in \
         .perfbench/NAME.perfetto.json)" );
      ("--smoke", Arg.Set_string smoke_file, "FILE check every workload against FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !smoke_file <> "" then smoke !smoke_file
  else begin
    let bad msg =
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline usage;
      exit 2
    in
    if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
    if !seconds < 0 then bad "--seconds must be non-negative";
    (* Scratch files and the Perfetto trace stay under the working
       directory. *)
    let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
    let w =
      match
        List.find_opt
          (fun (Workloads.W (n, _)) -> n = !workload)
          (Workloads.all ~dir Workloads.Full)
      with
      | Some w -> w
      | None -> bad (Printf.sprintf "unknown workload %S" !workload)
    in
    let perfetto = Filename.concat ".perfbench" (!workload ^ ".perfetto.json") in
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    Sys.mkdir dir 0o755;
    let result =
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~setups:5 ~perfetto
    in
    List.iter print_endline result.context;
    print_endline (to_json result)
  end
