(** SherLock configuration.

    Every knob evaluated in the paper is here: the objective trade-off
    [lambda] (Table 6), the conflict window [near] (Table 7), the
    hypothesis/property toggles (Table 5), and the perturber/feedback
    toggles (Figure 4). *)

type t = {
  lambda : float;       (** weight of all non-Mostly-Protected terms; 0.2 *)
  near : int;           (** conflicting-access window, us; 1 s *)
  window_cap : int;     (** max windows per static location pair; 15 *)
  delay_us : int;       (** injected delay; 100 ms *)
  rounds : int;         (** runs per test input; 3 *)
  parallelism : int;
      (** Ignored: a round runs its tests one after another.  Kept only
          because perfbench sets it.  The benchmark change that moves
          perfbench onto {!Orchestrator.infer} deletes it; default 1. *)
  extract_jobs : int;
      (** Ignored: extraction is sequential.  Kept only because perfbench
          sets it.  The benchmark change that moves perfbench onto
          {!Orchestrator.infer} deletes it. *)
  threshold : float;    (** probability at which a variable counts as 1; 0.9 *)
  rare_coeff : float;   (** coefficient of the rare term (Equation 4); 0.1 *)
  seed : int;           (** base seed for all simulated schedules *)
  (* Hypotheses and properties — §2, ablated in Table 5. *)
  use_protected : bool;      (** Mostly Protected (Equation 2) *)
  use_rare : bool;           (** Synchronizations are Rare (Equations 3–4) *)
  use_variation : bool;      (** Acquisition-Time Mostly Varies (Equation 5) *)
  use_paired : bool;         (** Mostly Paired (Equations 6–7) *)
  use_role_property : bool;  (** Read-Acquire & Write-Release (Equation 1) *)
  use_single_role : bool;    (** Single Role for library APIs *)
  single_role_soft : bool;
      (** extension (paper §5.5 future work): penalize Single-Role
          violations instead of forbidding them *)
  (* Perturber / feedback — §3 and §4.3, ablated in Figure 4. *)
  use_delays : bool;         (** inject delays before inferred releases *)
  delay_probability : float;
      (** extension (paper footnote 1): probability of injecting each
          planned delay instance; 1.0 = always *)
  accumulate : bool;         (** keep observations across runs *)
  use_race_removal : bool;   (** drop protected terms of observed races *)
  use_refinement : bool;     (** shrink windows from delay propagation *)
  (* Resilience — fault injection and supervised orchestration. *)
  max_steps : int;
      (** scheduler-pick watchdog per simulated run; past it the run
          aborts as [Runtime.Stalled] and is handled like a deadlock.
          0 disables the watchdog; default 1_000_000 *)
  retries : int;
      (** how many reseeded re-runs the orchestrator attempts after a
          test run fails (crash / deadlock / stall); 0 disables *)
  fault_plan : Sherlock_sim.Fault.plan;
      (** deterministic fault plan applied to every simulated run;
          [Fault.empty] (the default) injects nothing *)
  provenance : bool;
      (** capture per-verdict evidence (windows, LP rows with duals,
          delay plans, stabilization rounds) for the provenance sidecar
          and [sherlock explain].  Off by default; when off the pipeline
          allocates nothing for it, and capture never changes verdicts
          either way. *)
  metrics_interval_ms : int;
      (** snapshot the installed metrics ring on this interval for the
          duration of {!Orchestrator.infer} (the ticker systhread runs
          only while inference does).  0 (the default) starts no ticker;
          per-round snapshots still happen whenever a ring is
          installed. *)
}

val default : t
(** The paper's defaults: lambda 0.2, near 1 s, cap 15, delay 100 ms,
    3 rounds, everything enabled. *)

val pp : Format.formatter -> t -> unit
