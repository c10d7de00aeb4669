(** Sparse revised simplex over an LU-factorized basis.

    Solves [minimize c.x  subject to  A x (<=|>=|=) b,  0 <= x <= u]
    in floating point (upper bounds optional, per column).  The
    constraint matrix lives in {!Sparse} (CSR rows plus per-column
    occurrence lists); the basis is held factorized in {!Lu} —
    Markowitz-ordered LU plus a product-form eta file updated per
    pivot and rebuilt past a length/fill threshold — and every former
    dense-inverse walk is an FTRAN or BTRAN against it.  Upper bounds
    are handled directly in pricing and the ratio test (a nonbasic
    column sits at 0 or at its bound), so caps cost no rows.  Pricing
    uses Dantzig's rule with a permanent switch to Bland's anti-cycling
    rule after a long degenerate streak.  Both the primal and the dual
    simplex keep the reduced costs up to date from each pivot's row
    ([rho A], accumulated over the rows where [rho = B^-T e_r] is
    nonzero) instead of recomputing them per pivot.

    Every row has a slack column; an [Eq] row's is fixed at 0 ([ub =
    0]).  A column fixed at 0 never enters the basis.

    The module is an incremental state: columns and rows append over
    time, right-hand sides may be edited in place, and {!reoptimize}
    restarts from the previous optimal basis — primal if it is still
    feasible, a bounded-variable dual simplex under the last
    proven-optimal cost vector if not (a column added since that
    optimum at certificate cost 0), and a cold rebuild as the fallback
    of last resort.  A first solve is that cold rebuild.  This is what
    cross-round warm starts in the encoder ride on.

    The cold rebuild has one start, the all-slack basis.  It is dual
    feasible under the costs with every negative one raised to 0, so
    the dual simplex runs from it under those costs to primal
    feasibility (a fixed slack off 0 is one more bound to repair), and
    the primal then runs under the true costs to optimality.  For a
    program with no negative cost — every encoder LP — the primal only
    confirms.  A row no column can enter proves the program
    [`Infeasible]; any other dead end of that dual simplex raises
    {!Numerical_trouble}.

    A row appended to a live basis brings in a column added since the
    last optimum that appears in that row only and starts within its
    bounds (every hinge [h] of [1 - sum p - h <= 0] over new ops, at 1)
    in preference to its slack: it costs 0 in the certificate and has
    no entry in the old rows, so the new row's dual is 0 and every
    reduced cost keeps its sign — the basis stays dual feasible — and a
    row over new columns only starts feasible.  Whichever column joins,
    it has no entry in the older rows, so the factorization is bordered
    ({!Lu.append}) instead of rebuilt. *)

type relation =
  | Le
  | Ge
  | Eq

type constr = {
  row : (int * float) list;  (** sparse row: (variable, coefficient) *)
  relation : relation;
  rhs : float;
}

exception Iteration_limit
(** Raised by {!reoptimize} when an attempt's pivots, primal and dual
    together, exceed the limit — see {!set_pivot_limit}.  The state
    invalidates itself first, so the next solve starts cold.  Callers
    ({!Problem.solve}) map it to a non-[Solved] status rather than
    letting it escape. *)

exception Numerical_trouble
(** Raised by {!reoptimize} when the cold path breaks down numerically:
    the basis turns out singular at a refactorization, or its dual
    simplex dead-ends other than on a row no column can enter (a pivot
    too small to take, or a reduced cost drifted past tolerance).  The
    state invalidates itself first, as for {!Iteration_limit}. *)

(** Why a warm {!reoptimize} fell back to a cold rebuild. *)
type restart =
  | Residual  (** the warm optimum failed the residual check *)
  | Dual_repair
      (** the basis could not be repaired: primal infeasible without a
          dual certificate, a dual-simplex dead end (a row no column can
          repair, or a reduced cost drifted past tolerance), or a
          numerically failed factorization *)
  | Pivot_cap  (** the warm attempt hit the pivot cap *)

type stats = {
  pivots : int;  (** pivots performed by the last {!reoptimize} *)
  dual_pivots : int;  (** how many of them the dual simplex made *)
  warm : bool;  (** the last solve started from a previous basis *)
  reused_basis : int;
      (** structural columns inherited in the starting basis — the work
          a cold start would have had to redo *)
  cold_restart : restart option;
      (** why the last solve fell back to a cold rebuild, if it did *)
  refactors : int;  (** basis refactorizations during the last solve *)
  eta_len : int;
      (** longest product-form eta file reached before a rebuild *)
}

(** {1 Incremental state} *)

type t

val create : unit -> t

val add_col : ?ub:float -> t -> int
(** Append a structural column (a decision variable), returning its id.
    [ub] (default [infinity]) is its upper bound, enforced in the ratio
    test rather than by a row. *)

val add_row : t -> (int * float) list -> relation -> float -> int
(** Append a constraint over existing columns, returning its row id.  A
    slack/surplus column is added internally, fixed at 0 for [Eq].  If
    a basis exists, one column joins it for the new row — a singleton
    column added since the last optimum where the row has one, else the
    slack — and the factorization gains one border term; feasibility is
    repaired at the next {!reoptimize}. *)

val set_rhs : t -> int -> float -> unit
(** Change a row's right-hand side in place (e.g. relaxing a rounding
    pin).  Basic values are recomputed by FTRAN at the next solve. *)

val set_objective : t -> (int * float) list -> unit
(** Replace the whole objective with the given [(column, cost)] terms. *)

val reoptimize : t -> [ `Optimal of float | `Unbounded | `Infeasible ]
(** Solve the current program, reusing the previous basis when one
    exists.  A restricted warm path that reaches a dead end falls back
    to a cold rebuild — only the cold rebuild reports [`Infeasible].  Raises
    {!Iteration_limit} when even the cold path exceeds the pivot cap,
    and {!Numerical_trouble} when it breaks down numerically. *)

val value : t -> int -> float
(** Value of a column at the last optimum (0 when nonbasic at its lower
    bound, its upper bound when nonbasic there). *)

val is_at_upper : t -> int -> bool
(** Whether a column sits nonbasic at its upper bound at the last
    optimum — the bounded-variable analogue of "the cap row is tight". *)

val row_duals : t -> float array
(** Simplex multipliers y = c_B B^-1 of the last optimum, indexed by row
    id.  For a binding [<=] row at a minimum the dual is [<= 0]; its
    negation is the rate at which the objective would rise per unit of
    rhs tightening.  All zeros when the state holds no proven optimum
    (after [`Unbounded]/[`Infeasible] or before the first solve). *)

val reduced_costs : t -> float array
(** Reduced costs d_j = c_j - y . A_j of the last optimum, indexed by
    column id; 0 for basic columns.  A column at its upper bound has
    d_j <= 0, and [-d_j] is the rate the objective would rise per unit
    of bound tightening — the former cap-row dual.  All zeros when the
    state holds no proven optimum. *)

val dual_feasible : t -> bool
(** Whether the current basis is dual-feasible under the cost vector it
    was last proven optimal for (a column added since costs 0 in it):
    every nonbasic column not fixed at 0 has reduced cost >= -1e-6 at
    its lower bound and <= 1e-6 at its upper bound.  Vacuously true
    without a proven optimum.  Test hook for the warm-repair
    certificate. *)

val last_stats : t -> stats

val num_rows : t -> int

val num_cols : t -> int

(** {1 Engine knobs (test hooks)}

    Global configuration, read by every solve; set them only from
    sequential test code and restore the defaults afterwards. *)

val default_pivot_limit : int

val set_pivot_limit : int -> unit
(** Cap on the pivots of one attempt — the warm attempt, or the cold
    rebuild — counting primal and dual pivots and bound flips alike,
    before {!Iteration_limit} (default {!default_pivot_limit}).  Clamped
    to at least 1. *)

val default_refactor_interval : int

val set_refactor_interval : int -> unit
(** Eta-file length that triggers a basis refactorization (default
    {!default_refactor_interval}).  Clamped to at least 1. *)
