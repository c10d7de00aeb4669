(** Accumulated observations across runs (paper §4.3).

    Nothing from earlier runs is discarded: new windows and races are
    appended, method-duration samples grow, and the per-operation
    occurrence statistics are recomputed from the full window set.
    Identical windows (same conflicting pair, same candidate multisets)
    are merged with a multiplicity, which keeps the LP small without
    changing the objective. *)

open Sherlock_trace

type merged_window = {
  pair : Opid.t * Opid.t;
  field : string;
  rel : Windows.side;
  acq : Windows.side;
  weight : int;  (** how many identical dynamic windows merged into this *)
  coords : Windows.coord list;
      (** trace coordinates of the dynamic windows merged here, in
          arrival order, capped at a small sample ({!max_coords}) —
          provenance evidence only, never part of the merge identity *)
}

val max_coords : int
(** Cap on [coords] per merged window (8). *)

type t

type extraction
(** Everything derived from one run's trace: its windows, races,
    method-duration samples, and extraction metrics.  Extraction is pure
    in the log; folding the results in with {!add_extraction} in test
    order is equivalent to calling {!add_log} on each log in turn. *)

val create : unit -> t

val extract_log : near:int -> cap:int -> refine:bool -> Log.t -> extraction
(** Pure per-log analysis — the stateless half of {!add_log}. *)

val add_extraction : t -> extraction -> unit
(** Sequential merge — the stateful half of {!add_log}. *)

val add_log : t -> near:int -> cap:int -> refine:bool -> Log.t -> unit
(** Extract windows and races from one run's trace and fold them in.
    Equivalent to [add_extraction t (extract_log ~near ~cap ~refine log)]. *)

val windows : t -> merged_window list
(** All merged windows, in arrival order (the same order {!window_at}
    indexes). *)

val window_count : t -> int
(** Number of merged windows so far.  Merged windows have stable ids
    [0 .. window_count - 1] in arrival order; an id's identity (pair and
    candidate multisets) never changes, only its weight can grow.  An
    incremental encoder can therefore cache per-window terms and encode
    only ids past its previous watermark. *)

val window_at : t -> int -> merged_window
(** Current snapshot (including weight) of the merged window with the
    given id. *)

val race_count : t -> int
(** Racy pairs recorded so far; grows monotonically, so a watermark
    detects rounds that added races. *)

val racy_pairs : t -> (Opid.t * Opid.t) list
(** Static conflicting pairs observed to race in at least one window. *)

val is_racy_pair : t -> Opid.t * Opid.t -> bool

val durations : t -> Durations.t

val runs : t -> int

val metrics : t -> Metrics.t
(** Accumulated extraction counts over every log folded in.
    Mutable: callers wanting a snapshot should {!Metrics.copy} it. *)

val avg_occurrences : t -> Opid.t -> float
(** [avg_occurrences t] tabulates the current windows once and returns
    the lookup: the average number of dynamic instances of an op per
    window in which it appears (on either side, weighted by window
    multiplicity; 0 for an op in no window) — the input to the rare
    term (Equation 4).  The table is a snapshot: windows added later are
    not reflected. *)

val candidate_count : t -> int
(** Distinct candidate operations across all windows. *)
