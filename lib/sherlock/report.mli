(** Scoring inferred verdicts against an application's ground truth —
    the bookkeeping behind Tables 2, 4, 5, 6, 7 and Figure 4. *)


type verdict_class =
  | Correct of Ground_truth.entry
  | Data_racy   (** an access participating in a true data race (§5.2) *)
  | Instr_error (** fallout of a simulated instrumentation error *)
  | Not_sync    (** plain false positive *)

type t = {
  classified : (Verdict.t * verdict_class) list;
  missed : Ground_truth.entry list;  (** true syncs not inferred *)
}

val classify : Ground_truth.t -> Verdict.t list -> t

val count : t -> verdict_class -> int
(** Matching on the constructor only (payloads ignored). *)

val num_correct : t -> int

val num_inferred : t -> int

val precision : t -> float
(** correct / inferred; nan when nothing was inferred. *)

val precision_string : t -> string
(** Rendering for CLI/report output: ["75%"], or ["n/a"] when nothing was
    inferred (never ["nan%"]). *)

val correct_ops : t -> (Verdict.t * Ground_truth.entry) list

val false_positive_cause : Ground_truth.t -> Verdict.t -> Ground_truth.cause
(** Table 4 bucket for a non-correct verdict: instrumentation scope,
    then structural cues (ReaderWriterLock upgrade/downgrade ->
    Double_role; Finalize/Dispose -> Dispose; .cctor -> Static_ctor),
    else Others. *)

val print_round_metrics : Format.formatter -> Orchestrator.round_result list -> unit
(** Render one row per round from the cumulative extraction counts
    taken at that round's solve (events, pairs, windows, races), each
    cell annotated with its delta against the previous round.  Also
    shows the round's injected fault-plan sites ("Inj"),
    failed run attempts ("Failed"), tests dropped after exhausting
    retries ("Lost"), whether the round's base LP solve started warm
    or cold, or degraded ("LP"), its pivots, and the cap rows its column bounds kept out of
    the matrix ("Bound rows"). *)

val stages : string list
(** The span names of one round's stages, in pipeline order: [run],
    [extract], [merge], [encode], [lp], [plan-delays] (perfbench's
    layers carry the same names). *)

val print_stage_times : Format.formatter -> Sherlock_telemetry.Span.closed list -> unit
(** Render one row per [round] span: the CPU milliseconds of the [run],
    [extract], [merge], [encode], [lp] and [plan-delays] spans under it,
    and the round span's own CPU ("Total"). *)

val print_simulator_summary : Format.formatter -> unit -> unit
(** Simulator totals from the default metrics registry: runs, events
    recorded, scheduler picks, and [Gc.minor_words] allocated per event
    while the runs ran.  Prints nothing when no run has happened in this
    process. *)

val print_extraction_summary : Format.formatter -> unit -> unit
(** Window-extraction cache effectiveness from the default metrics
    registry: span-cache hit rate (hits of total lookups), events folded
    per computed span ([windows.span.folded] over cache misses).  Prints
    nothing when no extraction has happened in this process. *)

val print_run_failures : Format.formatter -> Orchestrator.round_result list -> unit
(** One line per failed run attempt (round, test, attempt, cause), with
    [\[dropped\]] marking tests that exhausted their retries; prints
    nothing when every run completed. *)

val print_sites : Format.formatter -> app:string -> Verdict.t list -> Ground_truth.t -> unit
(** Render the artifact's result format: "Releasing sites: ... Acquire
    sites: ...", with Tables 8/9-style descriptions where known. *)

val print_solve :
  Format.formatter -> traces:int -> Verdict.t list -> Encoder.solve_stats -> unit
(** The [solve-trace] report: trace, window and variable counts, a
    ["degraded: CAUSE"] line when the LP did not solve (CAUSE is
    {!Sherlock_lp.Problem.status_name} of its status), then the
    releasing and acquire sites. *)
