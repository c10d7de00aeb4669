(** LU-factorized simplex basis with product-form updates.

    Factors the m x m basis matrix [B] (given column by column) as
    [P B Q = L U] with a Markowitz-style ordering: columns are
    eliminated sparsest-first, and within a column the pivot row is
    chosen by threshold partial pivoting (any row whose magnitude is
    within a factor of the column maximum is acceptable) preferring the
    row with the fewest occurrences across the basis, which is what
    keeps fill-in low on the hinge-shaped bases the encoder produces.

    After a simplex pivot the factorization is not rebuilt: an {e eta}
    matrix is appended (product form of the inverse), so
    [B_k = B_0 E_1 ... E_k] and both solves replay the eta file around
    the triangular solves.  The eta file grows by one sparse column per
    pivot; the caller refactorizes periodically ({!eta_count} /
    {!eta_nnz} feed its threshold) to keep solves O(nnz).

    An appended constraint row whose new basic column has no entry in
    the older rows is not a refactorization either: the basis becomes
    [[B, 0], [a^T, s]], and {!append} records that border as one more
    term of the same file.  FTRAN replays it oldest-first after the
    triangular solves, setting [x_p = (b_p - a . x) / s]; BTRAN replays
    it newest-first before them, setting [y_p = c_p / s] and then
    [c <- c - a y_p] on the older positions.

    Solves are the two classic simplex kernels:
    - {!ftran} — solve [B x = b] (entering-column direction, basic
      values);
    - {!btran} — solve [B^T y = c] (simplex multipliers, tableau rows).

    Vectors indexed "by row" live in constraint-row space; vectors
    indexed "by position" live in basis-position space (position [k]
    holds the column [basis.(k)] of the simplex). *)

type t

val factorize : m:int -> col:(int -> (int -> float -> unit) -> unit) -> t option
(** [factorize ~m ~col] factors the basis whose column at position [k]
    is enumerated by [col k f] ([f row coeff], rows in any order,
    duplicates summed).  Returns [None] when the basis is numerically
    singular (no acceptable pivot in some column). *)

val size : t -> int
(** The dimension [m] of the basis now: the one factorized plus one per
    {!append}. *)

val ftran : t -> float array -> float array
(** [ftran t b] solves [B x = b].  [b] is indexed by row (length [m],
    not modified); the result is indexed by basis position. *)

val btran : t -> float array -> float array
(** [btran t c] solves [B^T y = c].  [c] is indexed by basis position
    (length [m], not modified); the result is indexed by row. *)

val update : t -> r:int -> w:float array -> unit
(** [update t ~r ~w] records the pivot that replaced the column at
    basis position [r], where [w = ftran t (entering column)] is the
    pivot direction.  Appends one eta term; O(nnz w).  The caller must
    have rejected pivots with [abs_float w.(r)] below its pivot
    tolerance. *)

val append : t -> a:(int * float) list -> s:float -> unit
(** [append t ~a ~s] grows the basis by one row and one column, both at
    index [p = size t]: the new row holds [s] on the new basic column
    and [a] ([(position, coeff)] pairs, positions [< p]) on the older
    basic columns, and the new column has no entry in the older rows.
    Appends one border term; O(length a).  In FTRAN and BTRAN inputs
    and outputs, index [p] is both the new row and the new position.
    The caller must have rejected a tiny [s]. *)

val eta_count : t -> int
(** Number of terms (pivots and borders) accumulated since
    factorization. *)

val eta_nnz : t -> int
(** Total stored entries across the eta file, borders included. *)

val factor_nnz : t -> int
(** Entries in the L and U factors (fill-in included). *)
