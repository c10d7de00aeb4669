(** Two-phase dense primal simplex — the seed reference engine.

    Solves [minimize c.x  subject to  A x (<=|>=|=) b,  x >= 0] exactly in
    floating point with a dense [m x (n+1)] tableau and Bland's
    anti-cycling rule.  Kept only as the oracle the revised simplex behind
    [Problem.solve] is equivalence-tested against. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Infeasible

val solve :
  num_vars:int ->
  objective:(int * float) list ->
  Sherlock_lp.Simplex.constr list ->
  outcome
(** [solve ~num_vars ~objective constrs] minimizes over variables
    [0 .. num_vars - 1], all bounded below by 0.  The returned
    [solution] has length [num_vars]. *)
