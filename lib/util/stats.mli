(** Small statistics helpers used by the inference engine.

    The Acquisition-Time-Mostly-Varies hypothesis (paper §2) ranks methods
    by the coefficient of variation of their durations and by the
    percentile of that coefficient among all methods; these are the
    primitives it needs. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val coefficient_of_variation : float list -> float
(** [stddev xs /. mean xs]; 0 when the mean is 0 or the list is short.
    This is the paper's CV(duration(m)) in Equation (5). *)

val percentile_rank : float list -> float -> float
(** [percentile_rank xs x] is the fraction of elements of [xs] that are
    strictly below [x], in [\[0, 1\]].  0 on the empty list.  This is the
    paper's [percentile] in Equation (5): a method whose duration CV beats
    most others gets a rank near 1 and hence a near-zero acquire penalty. *)

val median : float list -> float
(** Median; 0 on the empty list. *)

val sum : float list -> float
(** Sum; 0 on the empty list. *)

val quantile : float -> float list -> float
(** [quantile p xs] is the nearest-rank [p]-quantile: the smallest
    element with at least a fraction [p] of [xs] at or below it, for
    [p] in [\[0, 1\]].  0 on the empty list. *)
