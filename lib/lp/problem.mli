(** Linear-program builder.

    A thin modelling layer over {!Simplex}: named variables with bounds, a
    minimization objective accumulated term by term, and the two non-linear
    shapes the SherLock encoding needs, both with their standard exact LP
    reductions:

    - {!hinge} — [max(0, e)], for the Mostly-Protected terms (Equation 2);
    - {!abs} — [|e|], for the Mostly-Paired terms (Equations 6 and 7).

    All variables are bounded below by 0, matching their reading as
    probabilities or penalties.

    Two solve paths share the builder.  {!solve} is one-shot: the program
    is presolved ({!Presolve}) and handed to the selected engine — the
    sparse revised simplex by default, the seed dense tableau ({!Dense})
    for reference runs.  {!solve_incremental} keeps a live {!Simplex.t}
    inside the problem: each call pushes only the variables, constraints,
    right-hand-side edits, and objective accumulated since the previous
    call and reoptimizes from the previous basis — the engine of the
    encoder's cross-round warm starts. *)

type t

type var = int

type row_id = int

type status =
  | Solved of float  (** optimal objective value *)
  | Infeasible
  | Unbounded
  | Aborted
      (** the solver hit its pivot cap ({!Simplex.Iteration_limit}) and
          gave up; treated by callers like any other non-[Solved]
          status (the encoder degrades to its previous verdicts) *)

(** Which simplex implementation {!solve} uses. *)
type engine =
  | Dense  (** seed two-phase dense tableau ({!Dense}) *)
  | Sparse  (** revised simplex over {!Sparse} (the default) *)

(** Statistics from the most recent solve of a problem. *)
type solve_info = {
  engine : engine;
  pivots : int;
  warm : bool;  (** started from a previous basis (incremental path) *)
  pivots_saved : int;
      (** structural basis columns inherited at a warm start *)
  presolve_removed_rows : int;
  presolve_fixed_vars : int;
  cold_restarts : int;  (** warm attempts that fell back to a cold build *)
  refactors : int;  (** basis refactorizations during the solve *)
  eta_len : int;  (** longest eta file reached before a rebuild *)
  bound_rows_saved : int;
      (** cap rows the bounded-variable encoding kept out of the sparse
          matrix (0 on the Dense path, which still gets real rows) *)
}

val create : unit -> t

val set_engine : t -> engine -> unit

val engine : t -> engine

val set_presolve : t -> bool -> unit
(** Toggle the {!Presolve} pass on the one-shot path (on by default). *)

val add_var : t -> ?ub:float -> string -> var
(** [add_var t name] declares a variable in [\[0, inf)]; [~ub] caps it
    (probability variables use [~ub:1.0]).  Names are for diagnostics and
    need not be unique.  The cap, when present, is recorded as a {e
    virtual} row tagged ["ub:" ^ name]: it keeps a stable {!row_id}
    (retrievable via {!ub_row}, visible to {!row_info} and provenance,
    and a real constraint on the [Dense] oracle), but sparse engines
    enforce it as a column bound in the ratio test — no matrix row — and
    its dual is synthesized from the bounded column's reduced cost. *)

val name : t -> var -> string

val num_vars : t -> int

val num_rows : t -> int

(** A constraint as stored, for provenance reporting. *)
type row_info = {
  ri_tag : string;  (** source tag given at creation ("" when untagged) *)
  ri_terms : (var * float) list;
  ri_rel : Simplex.relation;
  ri_rhs : float;
}

val row_info : t -> row_id -> row_info

val row_activity : t -> row_id -> (var -> float) -> float
(** Left-hand-side value of a row under an assignment. *)

val ub_row : t -> var -> row_id option
(** The row id of the variable's upper-bound cap, if it was declared with
    [~ub].  Its dual at a minimum is [<= 0] when binding; the negation is
    the confidence margin provenance reports per verdict. *)

val add_le : ?tag:string -> t -> Linexpr.t -> float -> unit
(** Constraint [e <= rhs] (any constant inside [e] is folded into [rhs]).
    [~tag] names the row's source for provenance ("" by default). *)

val add_ge : ?tag:string -> t -> Linexpr.t -> float -> unit

val add_eq : ?tag:string -> t -> Linexpr.t -> float -> unit

val add_ge_row : ?tag:string -> t -> Linexpr.t -> float -> row_id
(** {!add_ge} returning the constraint's id, for later {!set_row_rhs}
    (how rounding pins are later relaxed). *)

val set_row_rhs : t -> row_id -> float -> unit
(** Replace a constraint's right-hand side (the stored one — any constant
    folded out of the expression at creation stays folded). *)

val add_objective : t -> Linexpr.t -> unit
(** Accumulate a term into the minimization objective.  The objective is
    kept as one coefficient per variable plus a constant, so adding a
    term costs O(terms of [e]), not O(size of the objective). *)

val add_objective_term : t -> var -> float -> unit
(** [add_objective_term t v c] is [add_objective t (Linexpr.var ~coeff:c v)]
    without building the expression. *)

val set_objective : t -> Linexpr.t -> unit
(** Replace the whole objective, constant included (incremental encoders
    rebuild it each round with recomputed weights). *)

val objective_terms : t -> (var * float) list
(** The objective's variable terms in increasing variable order, zero
    coefficients omitted — what {!Linexpr.terms} gives for the same
    terms summed with {!Linexpr.add}, coefficient for coefficient. *)

val objective_constant : t -> float

val hinge : t -> weight:float -> string -> Linexpr.t -> var
(** [hinge t ~weight name e] adds a fresh variable [h >= max(0, e)] and the
    objective term [weight * h]; at the optimum [h = max(0, e)] because [h]
    is minimized.  Returns [h]. *)

val hinge_var : t -> string -> Linexpr.t -> var
(** {!hinge} without the objective term, for callers that set the whole
    objective via {!set_objective}. *)

val abs : t -> weight:float -> string -> Linexpr.t -> var
(** [abs t ~weight name e] adds a fresh [a >= |e|] with objective term
    [weight * a]; at the optimum [a = |e|].  Returns [a]. *)

val abs_var : t -> string -> Linexpr.t -> var
(** {!abs} without the objective term. *)

val solve : t -> status * (var -> float)
(** Solve the accumulated program one-shot (presolve + selected engine).
    The assignment function returns 0 for every variable when the program
    is not [Solved]. *)

val solve_incremental : t -> status * (var -> float)
(** Solve keeping live solver state inside [t]: subsequent calls push
    only the delta since the previous call and warm-start from its basis.
    Semantically equivalent to {!solve} (same optimal value; possibly a
    different optimal vertex when ties exist). *)

val last_info : t -> solve_info
(** Statistics of the most recent {!solve} / {!solve_incremental}. *)

(** Simplex multipliers of the last optimum, in problem coordinates. *)
type duals = {
  d_rows : float array;
      (** per constraint (by {!row_id}): its dual value.  For a binding
          [<=] row at a minimum the dual is [<= 0].  0 for rows presolve
          removed outright. *)
  d_vars : float array;
      (** per variable: its reduced cost (0 when basic, or when presolve
          substituted the variable out). *)
}

val set_capture_duals : t -> bool -> unit
(** When on, {!solve} and {!solve_incremental} snapshot the dual values
    and reduced costs of each optimal solve for {!last_duals}.  Off by
    default; when off neither path allocates anything extra.  Capture
    never changes the pivot sequence, so assignments and objectives are
    bitwise identical either way.  The [Dense] engine and fault-injected
    solves never capture. *)

val last_duals : t -> duals option
(** Duals of the most recent solve; [None] when capture was off, the
    solve was not optimal, or the path does not support capture. *)

val set_fault : status option -> unit
(** Fault-injection seam: while [Some s] is installed, {!solve} and
    {!solve_incremental} skip the simplex entirely and report [s] with
    the all-zero assignment.  Used by tests to exercise the pipeline's
    graceful-degradation path (an organically infeasible program cannot
    arise from the SherLock encoding, whose constraints are all
    satisfiable at zero).
    [set_fault None] restores normal solving.  Global, not domain-local:
    install only around single-domain runs. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line size summary (variables / constraints), for logs. *)
