(** The multi-round inference loop (Figure 1): run the subject's tests
    under instrumentation, accumulate observations, solve, derive a delay
    plan, repeat.

    Round 1 runs with no delays (there is no inference yet); each later
    round injects delays before the previous round's inferred releases.
    With [accumulate] off (a Figure 4 ablation) each round solves over
    that round's observations only.

    Orchestration is supervised: a test run that crashes (including an
    injected {!Sherlock_sim.Fault} crash), deadlocks, or trips the step
    watchdog never aborts the inference.  The failure is recorded in the
    round's {!run_report}s, the run is retried up to [config.retries]
    times with a reseeded schedule, and if every attempt fails the test
    simply contributes no observations that round.  Likewise an
    infeasible/unbounded LP degrades to the previous round's verdicts
    (see {!Encoder.solve}) instead of raising. *)

open Sherlock_trace

type subject = {
  subject_name : string;
  tests : (string * (unit -> unit)) list;
      (** named unit tests; each runs inside a fresh simulator world *)
}

(** Why one attempt of one test run failed. *)
type run_failure =
  | Crashed of string  (** exception (injected or organic), rendered *)
  | Deadlocked of string  (** [Runtime.Deadlock]: the stuck thread names *)
  | Stalled of int  (** [Runtime.Stalled]: scheduler steps consumed *)

type run_report = {
  test_name : string;
  attempts : int;  (** runs executed: 1 on clean success *)
  failures : run_failure list;  (** one per failed attempt, in order *)
  injected : int;
      (** fault-plan sites that fired across all attempts; 0 proves the
          plan never touched this test (and hence that its runs are
          bitwise identical to the no-fault baseline) *)
  completed : bool;  (** some attempt produced a usable log *)
}

type round_result = {
  round : int;  (** 1-based *)
  verdicts : Verdict.t list;
  stats : Encoder.solve_stats;
  delayed_ops : int;  (** size of the delay plan this round ran under *)
  run_reports : run_report list;  (** one per test, in test order *)
}

type result = {
  rounds : round_result list;  (** in round order *)
  final : Verdict.t list;
  observations : Observations.t;  (** state after the last round *)
  provenance : Sherlock_provenance.Provenance.t option;
      (** [Some _] iff [config.provenance]: per-round traces (windows
          watermark, objective, verdicts, the delay plan the round ran
          under) plus one evidence record per final verdict — its
          contributing windows stamped with the round they first
          appeared, the LP rows referencing its variable with duals and
          activities, the dual-derived confidence margin, and the rounds
          at which the verdict first appeared and stabilized. *)
}

val failure_to_string : run_failure -> string

val failed_runs : run_report list -> int
(** Total failed attempts across the reports. *)

val incomplete_runs : run_report list -> int
(** Tests whose every attempt failed. *)

val injected_faults : run_report list -> int
(** Total fault-plan sites fired across the reports. *)

val infer : ?config:Config.t -> subject -> result
(** Run [config.rounds] rounds over all tests.  Each round runs its
    tests one after another, each in a fresh simulator world, and merges
    their observations in test order.

    Per-test failures are supervised as described above; [infer] itself
    only lets resource-exhaustion exceptions ([Out_of_memory],
    [Stack_overflow]) escape.

    Telemetry: each round is a [round] span holding a [run] and an
    [extract] span per test, then [merge], [solve] (with [encode] and
    [lp]) and [plan-delays]; with a snapshot ring installed, each round
    ends with one point labelled ["round N"]. *)

val run_test_logs : ?config:Config.t -> subject -> Log.t list
(** One uninstrumented-delay (round-1 style) traced run per test, with the
    same seeds the first inference round uses — the input shared with the
    race detectors and the TSVD baseline.  Unsupervised: a failing run
    raises. *)

val test_seed : base:int -> round:int -> test_index:int -> int
(** The deterministic seed used for a given (round, test) execution. *)
