(** Deterministic fault injection for the simulator.

    A fault plan is pure data consulted by {!Runtime.run} alongside the
    instrument hook: it names scheduling points — a (thread id, per-thread
    traced-operation index) pair — at which the runtime injects a failure
    mode instead of (or on top of) the normal transition.  Because the
    plan is looked up without consuming scheduler randomness, a run whose
    plan never fires is bitwise identical to the same run with no plan at
    all, and the same (seed, plan) pair always replays the same faulty
    execution — the property the orchestrator's robustness gate and the
    determinism tests rely on.

    Supported failure modes:

    - {e crash}: the target thread raises {!Injected_crash} at its Nth
      traced operation — the simulated analogue of an unhandled exception
      in a workload body, which aborts the run;
    - {e hang}: the target thread blocks forever at its Nth traced
      operation — depending on the workload this surfaces as
      [Runtime.Deadlock] (someone joins it) or [Runtime.Stalled] (someone
      spins on it past the step watchdog);
    - {e spurious wakeup}: at the site, every thread blocked on any wait
      queue is woken as if signalled — exercising the re-check loops of
      the synchronization primitives;
    - {e delay inflation}: a plan-wide multiplier on every
      perturber-injected delay, modelling a delay budget blowing up. *)

type action =
  | Crash
  | Hang
  | Spurious_wakeup
  | Delay_inflation
      (** only reported through hooks; never attached to a site *)

type site = {
  tid : int;  (** target thread (0 is the main thread) *)
  op : int;  (** 1-based index into the thread's traced operations *)
  action : action;
}

type plan
(** Pure, immutable data (no closures): safe to embed in [Config.t],
    compare structurally, and hash. *)

exception Injected_crash of {
  tid : int;
  op : int;
}
(** Raised out of {!Runtime.run} when a crash site fires. *)

val empty : plan

val is_empty : plan -> bool

val make : ?delay_factor:int -> site list -> plan
(** [make sites] builds a plan.  [delay_factor] (default 1) multiplies
    every instrument-injected delay.  Raises [Invalid_argument] on a
    non-positive factor, a site with [op < 1] or [tid < 0], or a site
    whose action is [Delay_inflation] (which is plan-wide, not
    site-keyed). *)

val sites : plan -> site list

val has_sites : plan -> bool

val delay_factor : plan -> int

val find : plan -> tid:int -> op:int -> action option
(** The action to inject when thread [tid] reaches its [op]th traced
    operation, if any.  At most one site per (tid, op) fires: the first
    in plan order. *)

val action_name : action -> string
(** ["crash"], ["hang"], ["wakeup"], ["delay-inflation"]. *)

val of_specs : string list -> (plan, string) result
(** Parse CLI fault specs, one per string:
    ["crash:tid=2,op=40"], ["hang:tid=1,op=10"], ["wakeup:tid=0,op=5"],
    ["delay-factor:8"].  Later [delay-factor] specs override earlier
    ones. *)

val to_specs : plan -> string list
(** Render back to the spec syntax accepted by {!of_specs}. *)

val pp : Format.formatter -> plan -> unit

val randomized :
  seed:int ->
  ?crashes:int ->
  ?hangs:int ->
  ?wakeups:int ->
  ?delay_factor:int ->
  max_tid:int ->
  max_op:int ->
  unit ->
  plan
(** A deterministic pseudo-random plan (the robustness artifact of
    [tools/reproduce.exe] uses one): [crashes]/[hangs]/[wakeups] sites (default 1 each) with
    thread ids in [\[1, max_tid\]] and operation indices in
    [\[1, max_op\]]. *)
