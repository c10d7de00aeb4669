open Sherlock_trace

type verdict_class =
  | Correct of Ground_truth.entry
  | Data_racy
  | Instr_error
  | Not_sync

type t = {
  classified : (Verdict.t * verdict_class) list;
  missed : Ground_truth.entry list;
}

let classify_one (gt : Ground_truth.t) (v : Verdict.t) =
  match Ground_truth.find gt v.op v.role with
  | Some entry -> Correct entry
  | None ->
    if Opid.is_access v.op && Ground_truth.is_racy_field gt (Opid.field_key v.op) then
      Data_racy
    else if List.mem v.op.cls gt.error_scope then Instr_error
    else Not_sync

let classify gt verdicts =
  let classified = List.map (fun v -> (v, classify_one gt v)) verdicts in
  let inferred_ok (entry : Ground_truth.entry) =
    List.exists
      (function
        | _, Correct (e : Ground_truth.entry) ->
          Opid.equal e.op entry.op && e.role = entry.role
        | _ -> false)
      classified
  in
  let missed = List.filter (fun e -> not (inferred_ok e)) gt.syncs in
  { classified; missed }

let count t cls =
  let matches = function
    | Correct _, Correct _ | Data_racy, Data_racy | Instr_error, Instr_error
    | Not_sync, Not_sync ->
      true
    | (Correct _ | Data_racy | Instr_error | Not_sync), _ -> false
  in
  List.length (List.filter (fun (_, c) -> matches (c, cls)) t.classified)

let num_correct t =
  List.length
    (List.filter (function _, Correct _ -> true | _ -> false) t.classified)

let num_inferred t = List.length t.classified

let precision t =
  if num_inferred t = 0 then nan
  else float_of_int (num_correct t) /. float_of_int (num_inferred t)

(* The [nan] from [precision] must not leak into user-facing output as
   "nan%": zero inferred verdicts prints as "n/a". *)
let precision_string t =
  if num_inferred t = 0 then "n/a"
  else Printf.sprintf "%.0f%%" (100.0 *. precision t)

let correct_ops t =
  List.filter_map (function v, Correct e -> Some (v, e) | _ -> None) t.classified

let false_positive_cause (gt : Ground_truth.t) (v : Verdict.t) =
  if List.mem v.op.cls gt.error_scope then Ground_truth.Instr_error
  else if
    v.op.member = "UpgradeToWriterLock" || v.op.member = "DowngradeFromWriterLock"
  then Ground_truth.Double_role
  else if v.op.member = "Finalize" || v.op.member = "Dispose" then Ground_truth.Dispose
  else if v.op.member = ".cctor" then Ground_truth.Static_ctor
  else Ground_truth.Other_cause

(* Each round's [stats.trace] is the cumulative metrics snapshot at that
   round's solve (which stays meaningful when [accumulate] is off and the
   observation state resets per round); every cell also shows the delta
   against the previous round, so round-over-round cost reads directly
   off the table. *)
let print_round_metrics ppf (rounds : Orchestrator.round_result list) =
  let table =
    Sherlock_util.Table.create
      ~title:"Per-round trace metrics (cumulative, +delta vs previous round)"
      ~header:
        [
          "Round"; "Events"; "Pairs"; "Capped"; "Windows"; "Races"; "Inj";
          "Failed"; "Lost"; "LP"; "Pivots"; "Bound rows";
        ]
  in
  let int_cell cum prev = Printf.sprintf "%d (+%d)" cum (cum - prev) in
  (* The LP cells are per-round, not cumulative: each round's
     [stats.lp] already covers just that round's solve sequence. *)
  let lp_cell (s : Encoder.solve_stats) =
    if s.degraded then "degraded"
    else if s.lp.lp_base_warm then "warm"
    else "cold"
  in
  let pivots_cell (l : Encoder.lp_stats) =
    let base =
      if l.lp_pivots_saved > 0 then
        Printf.sprintf "%d (-%d)" l.lp_pivots l.lp_pivots_saved
      else string_of_int l.lp_pivots
    in
    if l.lp_refactors > 0 then
      Printf.sprintf "%s f%d e%d" base l.lp_refactors l.lp_eta_len
    else base
  in
  let prev = ref (Metrics.create ()) in
  List.iter
    (fun (r : Orchestrator.round_result) ->
      let m = r.stats.trace and p = !prev in
      Sherlock_util.Table.add_row table
        [
          string_of_int r.round;
          int_cell m.events p.events;
          int_cell m.pairs_considered p.pairs_considered;
          int_cell m.pairs_capped p.pairs_capped;
          int_cell m.windows p.windows;
          int_cell m.races p.races;
          string_of_int (Orchestrator.injected_faults r.run_reports);
          string_of_int (Orchestrator.failed_runs r.run_reports);
          string_of_int (Orchestrator.incomplete_runs r.run_reports);
          lp_cell r.stats;
          pivots_cell r.stats.lp;
          string_of_int r.stats.lp.lp_bound_rows_saved;
        ];
      prev := m)
    rounds;
  Format.fprintf ppf "%s@." (Sherlock_util.Table.render table)

(* The stages of one round, in pipeline order; perfbench's layers carry
   the same names. *)
let stages = [ "run"; "extract"; "merge"; "encode"; "lp"; "plan-delays" ]

(* Stage time comes from spans only.  Spans close in order and rounds do
   not nest, so a round's stage spans are those closed since the
   previous round closed ([encode] and [lp] sit under [solve]). *)
let print_stage_times ppf (spans : Sherlock_telemetry.Span.closed list) =
  let module Span = Sherlock_telemetry.Span in
  let cpu_ms (s : Span.closed) = 1e3 *. (s.cpu_end_s -. s.cpu_start_s) in
  let table =
    Sherlock_util.Table.create ~title:"Per-round stage CPU ms (from spans)"
      ~header:(("Round" :: stages) @ [ "Total" ])
  in
  let sums = Hashtbl.create 8 in
  let sum stage = Option.value ~default:0.0 (Hashtbl.find_opt sums stage) in
  List.iter
    (fun (s : Span.closed) ->
      if s.name = "round" then begin
        Sherlock_util.Table.add_row table
          ((match List.assoc_opt "round" s.attrs with
           | Some (Span.Int n) -> string_of_int n
           | _ -> "?")
           :: List.map (fun stage -> Printf.sprintf "%.1f" (sum stage)) stages
          @ [ Printf.sprintf "%.1f" (cpu_ms s) ]);
        Hashtbl.reset sums
      end
      else if List.mem s.name stages then
        Hashtbl.replace sums s.name (sum s.name +. cpu_ms s))
    spans;
  Format.fprintf ppf "%s@." (Sherlock_util.Table.render table)

(* Extraction-cache telemetry for the -v report.  The span-cache and
   fold counters are recorded unconditionally (cold aggregation,
   once per extraction), so this reads real numbers on plain runs — no
   --telemetry-out needed.  A span query that misses the cache folds the
   span's events into a side; the events folded per such query is the
   per-side cost extraction pays.  The scan steps (candidate tests of
   the address scans) and open frames visited are the two costs that do
   not show in the span counts. *)
let print_extraction_summary ppf () =
  let module Tm = Sherlock_telemetry.Metrics in
  let v name = Tm.Counter.value (Tm.counter name) in
  let hits = v "windows.span_cache.hit" in
  let misses = v "windows.span_cache.miss" in
  let folded = v "windows.span.folded" in
  if hits + misses > 0 then
    Format.fprintf ppf
      "extraction: span cache %.1f%% hit (%d of %d lookups), %.1f events folded per \
       computed span, %d scan steps, %d open frames visited@."
      (100.0 *. float_of_int hits /. float_of_int (hits + misses))
      hits (hits + misses)
      (if misses > 0 then float_of_int folded /. float_of_int misses else 0.0)
      (v "windows.scan.steps")
      (v "windows.open_frames.visited")

(* Simulator totals for the -v report, from the counters every
   [Runtime.run] publishes (telemetry on or off). *)
let print_simulator_summary ppf () =
  let module Tm = Sherlock_telemetry.Metrics in
  let v name = Tm.Counter.value (Tm.counter name) in
  let runs = v "sim.runs" and events = v "sim.events" in
  if runs > 0 then
    Format.fprintf ppf
      "simulator: %d runs, %d events, %d scheduler picks (%d inline), %s minor \
       words per event@."
      runs events (v "sim.picks") (v "sim.picks.inline")
      (if events > 0 then
         Printf.sprintf "%.1f"
           (float_of_int (v "sim.minor_words") /. float_of_int events)
       else "n/a")

(* One line per failed attempt, in (round, test) order; silent when the
   whole inference was clean. *)
let print_run_failures ppf (rounds : Orchestrator.round_result list) =
  let any =
    List.exists
      (fun (r : Orchestrator.round_result) ->
        Orchestrator.failed_runs r.run_reports > 0)
      rounds
  in
  if any then begin
    Format.fprintf ppf "Failed runs:@.";
    List.iter
      (fun (r : Orchestrator.round_result) ->
        List.iter
          (fun (rep : Orchestrator.run_report) ->
            List.iteri
              (fun attempt f ->
                Format.fprintf ppf "  round %d  %-24s attempt %d/%d: %s%s@."
                  r.round rep.test_name (attempt + 1) rep.attempts
                  (Orchestrator.failure_to_string f)
                  (if (not rep.completed) && attempt + 1 = rep.attempts then
                     "  [dropped]"
                   else ""))
              rep.failures)
          r.run_reports)
      rounds
  end

let print_sites ppf ~app verdicts gt =
  let describe (v : Verdict.t) =
    match Ground_truth.find gt v.op v.role with
    | Some e -> Printf.sprintf "%-70s %s" (Opid.to_string v.op) e.description
    | None -> Opid.to_string v.op
  in
  Format.fprintf ppf "App:%s@." app;
  Format.fprintf ppf "Releasing sites:@.";
  List.iter
    (fun v -> Format.fprintf ppf "  %s@." (describe v))
    (Verdict.releases verdicts);
  Format.fprintf ppf "Acquire sites:@.";
  List.iter
    (fun v -> Format.fprintf ppf "  %s@." (describe v))
    (Verdict.acquires verdicts)

(* The [solve-trace] report: sizes, the cause when the solve degraded
   (its verdicts are then the empty carried-over list, not a finding),
   and the inferred sites. *)
let print_solve ppf ~traces verdicts (stats : Encoder.solve_stats) =
  Format.fprintf ppf "%d traces, %d windows, %d variables@." traces
    stats.num_windows stats.num_vars;
  if stats.degraded then
    Format.fprintf ppf "degraded: %s@."
      (Sherlock_lp.Problem.status_name stats.status);
  let sites title vs =
    Format.fprintf ppf "%s:@." title;
    List.iter
      (fun (v : Verdict.t) -> Format.fprintf ppf "  %s@." (Opid.to_string v.op))
      vs
  in
  sites "Releasing sites" (Verdict.releases verdicts);
  sites "Acquire sites" (Verdict.acquires verdicts)
