(** Feedback-based delay injection (paper §3, §4.3).

    After each round the perturber turns the current release verdicts into
    a delay plan: a fixed virtual delay before every dynamic instance of
    every inferred release.  For a release that is a method *exit*, the
    delay is placed before the method's *entry* — delaying the whole call
    is the only way to delay the release action it contains (instrumenting
    "immediately before the call site", as the paper's observer does). *)

open Sherlock_trace

type plan

val empty : plan

val of_verdicts : delay_us:int -> Verdict.t list -> plan
(** Build the plan from the current round's release verdicts. *)

val delay_before : plan -> Opid.t -> int
(** [delay_before plan] numbers the plan's ops by id once and returns
    the lookup: the delay to inject before one dynamic instance of an
    op, 0 if none (also for an op created after the call).  Apply it to
    the plan once and keep the closure for every event; it is plugged
    directly into {!Sherlock_sim.Runtime.instrument}. *)

val size : plan -> int
(** Number of distinct delayed operations. *)

val bindings : plan -> (Opid.t * int) list
(** The plan as (delayed op, delay in us) pairs, sorted by op — what
    provenance records as each round's perturbation experiment. *)
