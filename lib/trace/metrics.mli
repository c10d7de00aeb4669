(** An observation set's own extraction counts.

    Window extraction adds one log's counts into the record it is given,
    and merging an extraction into observations adds them up, so the
    record always describes exactly the observations it belongs to.  The
    process-wide view of the same counts is the registry's [windows.*]
    counters, which extraction bumps directly. *)

type t = {
  mutable events : int;            (** events traced across the merged runs *)
  mutable pairs_considered : int;  (** conflicting-access pairs examined *)
  mutable pairs_capped : int;
      (** static location pairs that hit the per-pair window cap *)
  mutable windows : int;           (** windows emitted *)
  mutable races : int;             (** observed data races emitted *)
}

val create : unit -> t
(** All counters zero. *)

val copy : t -> t
(** An independent snapshot. *)

val merge : into:t -> t -> unit
(** Add every counter of the second argument into [into]. *)
