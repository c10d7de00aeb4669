(** The paper's evaluation (Section 5) against this reproduction: each
    artifact runs the corpus under a base configuration (the paper's
    defaults at some seed) and returns its cells. *)

val checked : (string * (Sherlock_core.Config.t -> Artifact.t)) list
(** Every deterministic artifact, in paper order: [table1]-[table7],
    [figure4], [tables8_9], [tsvd], [ablation_extras], [robustness].
    Their cells depend only on the configuration, so EXPERIMENTS.md
    carries them as generated blocks. *)

val overhead : Sherlock_core.Config.t -> Artifact.t
(** Host wall-clock of bare, traced, and solved runs over the corpus:
    printed for context, never checked. *)

val clear_cache : unit -> unit
(** Forget the inference results the artifacts share. *)
