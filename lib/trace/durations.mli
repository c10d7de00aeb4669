(** Method-duration accounting for the Acquisition-Time-Mostly-Varies
    hypothesis (paper §2, Equation 5).

    Durations are recovered from the trace by pairing each method-exit
    event with the nearest unmatched entry of the same method on the same
    thread; the duration includes any time the method spent blocked, which
    is exactly why contended acquires show high variation. *)

type t

val create : unit -> t

val record_log : t -> Log.t -> unit
(** Fold one run's trace into the accumulated per-method samples.
    Observations accumulate across runs (paper §4.3).  Equivalent to
    [add_samples t (samples_of_log log)]. *)

val samples_of_log : Log.t -> (string * float array) list
(** The per-method duration samples of one trace, grouped by method key:
    groups in the order of their first sample, each group's samples in
    completion ([End]) order.  Pure with respect to the accumulator.
    Equivalent to folding {!collect} over the log's
    closed frames ({!Log.fold_frames}) and taking {!collected}. *)

val add_samples : t -> (string * float array) list -> unit
(** Adds groups of samples, one table lookup per group.  A key may occur
    in several groups; the result is that of adding every sample one at
    a time, in list order. *)

type collector
(** The samples of one trace, gathered a closed frame at a time, for a
    caller that folds the log's frames for its own purpose too (window
    extraction) and so recovers them without a second fold. *)

val collector : Log.t -> collector

val collect : collector -> Log.frame -> unit
(** Adds one closed frame of the collector's log; frames must come in
    [End] order, as {!Log.fold_frames} hands them out. *)

val collected : collector -> (string * float array) list
(** The samples so far, as {!samples_of_log} returns them. *)

val samples : t -> string -> float list
(** Duration samples (microseconds) for a method key
    (see {!Opid.method_key}). *)

val cv : t -> string -> float
(** Coefficient of variation of the method's durations; 0 if unseen. *)

val cv_percentiles : t -> string -> float
(** [cv_percentiles t] computes every method's CV once and returns the
    lookup: the percentile rank of a method's CV among all methods seen,
    in [\[0,1\]] — the paper's [percentile(CV(duration(m)))].  The CVs
    are a snapshot: samples added later are not reflected. *)

val methods : t -> string list
(** All method keys with at least one complete sample. *)
