type relation =
  | Le
  | Ge
  | Eq

type constr = {
  row : (int * float) list;
  relation : relation;
  rhs : float;
}

type restart =
  | Residual
  | Dual_repair
  | Pivot_cap

type stats = {
  pivots : int;
  dual_pivots : int;
  warm : bool;
  reused_basis : int;
  cold_restart : restart option;
  refactors : int;
  eta_len : int;
}

let eps = 1e-9

let feas_tol = 1e-7

let dual_tol = 1e-7

(* Revised simplex over the sparse matrix in {!Sparse} with an
   LU-factorized basis ({!Lu}): the basis inverse is never formed;
   FTRAN/BTRAN against the factors (plus the product-form eta file)
   replace every former [binv] walk.  Pivots append an eta term and the
   factorization is rebuilt when the eta file passes a length/fill
   threshold.  Variables carry optional upper bounds handled directly in
   pricing and the ratio test — a nonbasic column sits at 0 or at its
   bound ([at_upper]) and rows are never spent on caps.

   Both simplex loops work on reduced costs [d] computed once per call
   (and again after each refactorization): a pivot on row [r] takes one
   BTRAN of [e_r], accumulates the pivot row [alpha = rho A] over the
   rows where [rho] is nonzero, and updates [d <- d - theta alpha].

   Every row has a slack column; an [Eq] row's is fixed ([ub = 0]).
   A column with [ub = 0] never enters, in the primal or the dual.

   The state is incremental: columns and rows append (an appended row
   grows the basis by one column — a fresh singleton structural column
   where it has one, else its slack — which borders the factorization
   instead of invalidating it), right-hand sides may change in place,
   and the next [reoptimize] starts from the previous basis — primal if
   still feasible, a bounded-variable dual simplex under the last
   optimal cost vector if not, and a cold rebuild as the fallback of
   last resort.  The cold rebuild has one start: the slack basis, which
   is dual feasible under the costs with every negative one raised to
   0.  The dual simplex runs from it under those costs to primal
   feasibility (a fixed slack off 0 is one more bound violation), then
   the primal under the true costs to optimality.  For the encoder's
   LPs no cost is negative, so the primal only confirms. *)

type kind =
  | Structural
  | Slack

type mstats = {
  mutable m_pivots : int;
  mutable m_dual_pivots : int;
  mutable m_warm : bool;
  mutable m_reused : int;
  mutable m_cold : restart option;
  mutable m_refactors : int;
  mutable m_eta_max : int;
}

(* The pivot row alpha = rho A of one pivot, sparse over the columns it
   reaches ([touched.(0 .. n-1)]). *)
type pivot_row = {
  alpha : float array;
  seen : bool array;
  touched : int array;
  mutable n : int;
}

type t = {
  mat : Sparse.t;
  (* per column *)
  mutable kind : kind array;
  mutable cost : float array;
  mutable ub : float array; (* upper bound, [infinity] when none *)
  mutable at_upper : bool array; (* nonbasic at its upper bound *)
  mutable in_basis : int array; (* basic in this row, or -1 *)
  (* per row *)
  mutable rel : relation array;
  mutable rhs : float array;
  mutable slack_of : int array; (* slack/surplus column (fixed for Eq) *)
  (* factorization *)
  mutable have_basis : bool;
  mutable basis : int array; (* per row: the basic column *)
  mutable factor : Lu.t option; (* [None]: needs (re)factorization *)
  mutable xb : float array;
  mutable xb_valid : bool;
  (* dual certificate: the cost vector (and column count) the current
     basis was last proven optimal for.  Reduced costs under it keep
     their signs across row appends (the appended basic columns are
     cost-free) and rhs edits, which is exactly dual feasibility — the
     dual simplex restores primal feasibility under that certificate. *)
  mutable have_opt : bool;
  mutable opt_cost : float array;
  mutable opt_ncols : int;
  mutable attempt_base : int; (* [m_pivots] when the current attempt began *)
  (* workspaces of the simplex loops, kept across calls *)
  mutable dwork : float array; (* reduced costs, by column *)
  mutable prow : pivot_row;
  stats : mstats;
}

(* Both knobs are set only from tests; the solver treats them as
   read-only configuration. *)
let default_pivot_limit = 500_000

let pivot_limit = ref default_pivot_limit

let set_pivot_limit n = pivot_limit := max 1 n

let default_refactor_interval = 64

(* Live eta-file length, visible to the snapshot ticker mid-solve: how
   far the current factorization has drifted since the last refactor.
   One atomic store per pivot — noise next to the FTRAN/BTRAN work. *)
let g_eta_len = Sherlock_telemetry.Metrics.gauge "lp.eta_len"

let refactor_interval = ref default_refactor_interval

let set_refactor_interval n = refactor_interval := max 1 n

let create () =
  {
    mat = Sparse.create ();
    kind = Array.make 8 Structural;
    cost = Array.make 8 0.0;
    ub = Array.make 8 infinity;
    at_upper = Array.make 8 false;
    in_basis = Array.make 8 (-1);
    rel = Array.make 8 Le;
    rhs = Array.make 8 0.0;
    slack_of = Array.make 8 (-1);
    have_basis = false;
    basis = [||];
    factor = None;
    xb = [||];
    xb_valid = false;
    have_opt = false;
    opt_cost = [||];
    opt_ncols = 0;
    attempt_base = 0;
    dwork = [||];
    prow = { alpha = [||]; seen = [||]; touched = [||]; n = 0 };
    stats =
      {
        m_pivots = 0;
        m_dual_pivots = 0;
        m_warm = false;
        m_reused = 0;
        m_cold = None;
        m_refactors = 0;
        m_eta_max = 0;
      };
  }

let grow (type a) (a : a array) n (fill : a) : a array =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let register_col t k =
  let c = Sparse.add_col t.mat in
  t.kind <- grow t.kind (c + 1) Structural;
  t.cost <- grow t.cost (c + 1) 0.0;
  t.ub <- grow t.ub (c + 1) infinity;
  t.at_upper <- grow t.at_upper (c + 1) false;
  t.in_basis <- grow t.in_basis (c + 1) (-1);
  t.kind.(c) <- k;
  t.cost.(c) <- 0.0;
  t.ub.(c) <- infinity;
  t.at_upper.(c) <- false;
  t.in_basis.(c) <- -1;
  c

let add_col ?(ub = infinity) t =
  let c = register_col t Structural in
  t.ub.(c) <- ub;
  c

let num_rows t = Sparse.nrows t.mat

let num_cols t = Sparse.ncols t.mat

(* Whether nonbasic column [j] may enter, in the primal or the dual: a
   column fixed at 0 (an [Eq] row's slack) never does.  A basic one
   stays within its bounds like any other, so the ratio test refuses to
   let it grow, and the dual simplex treats a nonzero one — the residual
   of an [Eq] row — as a bound violation to repair. *)
let can_enter t j = t.in_basis.(j) < 0 && t.ub.(j) > 0.0

exception Iteration_limit

(* The factorization (or a pivot on it) went numerically bad, or the
   cold dual simplex dead-ended short of an infeasibility proof.  Warm
   paths fall back to a cold rebuild; a cold rebuild that still trips it
   gives up and lets it escape. *)
exception Numerical_trouble

let get_factor t =
  match t.factor with
  | Some lu -> lu
  | None -> invalid_arg "Simplex: no factorization"

let refactor_now t =
  let m = num_rows t in
  match Lu.factorize ~m ~col:(fun k f -> Sparse.iter_col t.mat t.basis.(k) f) with
  | None -> raise Numerical_trouble
  | Some lu ->
    t.factor <- Some lu;
    t.stats.m_refactors <- t.stats.m_refactors + 1;
    t.xb_valid <- false

(* Effective rhs: columns nonbasic at their bound contribute u_j A_j. *)
let compute_beff t =
  let m = num_rows t in
  let b = Array.sub t.rhs 0 m in
  for j = 0 to num_cols t - 1 do
    if t.at_upper.(j) then begin
      let u = t.ub.(j) in
      Sparse.iter_col t.mat j (fun r a -> b.(r) <- b.(r) -. (u *. a))
    end
  done;
  b

let ensure_ready t =
  (match t.factor with
  | Some lu when Lu.size lu = num_rows t -> ()
  | Some _ | None -> refactor_now t);
  if not t.xb_valid then begin
    t.xb <- Lu.ftran (get_factor t) (compute_beff t);
    t.xb_valid <- true
  end

let maybe_refactor t =
  let lu = get_factor t in
  if
    Lu.eta_count lu >= !refactor_interval
    || Lu.eta_nnz lu > (2 * Lu.factor_nnz lu) + num_rows t
  then begin
    refactor_now t;
    ensure_ready t
  end

(* One pivot cap for every pivot of an attempt, primal or dual; checked
   before each pass, so an attempt performs at most [!pivot_limit]. *)
let check_cap t =
  if t.stats.m_pivots - t.attempt_base >= !pivot_limit then raise Iteration_limit

(* Crash column for appended row [i]: the first structural column added
   since the last optimum, nonbasic at 0, that appears in row [i] only
   and whose start value [b / a] (every other column at 0) lies within
   its bounds. *)
let crash_col t i =
  let b = t.rhs.(i) in
  let found = ref None in
  (try
     Sparse.iter_row t.mat i (fun c a ->
         if
           t.kind.(c) = Structural
           && t.in_basis.(c) < 0
           && Sparse.col_nnz t.mat c = 1
           && c >= t.opt_ncols
           && not t.at_upper.(c)
         then begin
           let v = b /. a in
           if v >= 0.0 && v <= t.ub.(c) then begin
             found := Some c;
             raise Exit
           end
         end)
   with Exit -> ());
  !found

let add_row t entries relation rhs_v =
  let slack = register_col t Slack in
  let sign = match relation with Le | Eq -> 1.0 | Ge -> -1.0 in
  if relation = Eq then t.ub.(slack) <- 0.0;
  let i = Sparse.add_row t.mat ((slack, sign) :: entries) in
  t.rel <- grow t.rel (i + 1) Le;
  t.rhs <- grow t.rhs (i + 1) 0.0;
  t.slack_of <- grow t.slack_of (i + 1) (-1);
  t.rel.(i) <- relation;
  t.rhs.(i) <- rhs_v;
  t.slack_of.(i) <- slack;
  if t.have_basis then begin
    (* One column joins the basis for the appended row.  A singleton
       column added since the last optimum is preferred over the slack:
       its certificate cost is 0 and it has no entry in the old rows, so
       the row's dual is 0, every old reduced cost is unchanged and the
       slack's is 0 — the dual certificate still holds.  And where every
       other column of the row is new too, it starts feasible (a hinge
       over new ops at 1) instead of leaving the dual simplex a row to
       repair. *)
    let bcol = match crash_col t i with Some c -> c | None -> slack in
    (* Whichever it is, the new basic column has no entry in the older
       rows, so the new basis borders the old one and the factorization
       grows by one border term instead of being rebuilt. *)
    (match t.factor with
    | Some lu ->
      let a = ref [] and s = ref 1.0 in
      Sparse.iter_row t.mat i (fun c v ->
          if c = bcol then s := v
          else if t.in_basis.(c) >= 0 then a := (t.in_basis.(c), v) :: !a);
      if abs_float !s > eps then Lu.append lu ~a:!a ~s:!s else t.factor <- None
    | None -> ());
    let m = Array.length t.basis in
    let basis = Array.make (m + 1) 0 in
    Array.blit t.basis 0 basis 0 m;
    basis.(m) <- bcol;
    t.basis <- basis;
    t.in_basis.(bcol) <- m;
    t.xb_valid <- false
  end;
  i

let set_rhs t i v =
  if v <> t.rhs.(i) then begin
    t.rhs.(i) <- v;
    t.xb_valid <- false
  end

let set_objective t terms =
  Array.fill t.cost 0 (Array.length t.cost) 0.0;
  List.iter (fun (c, k) -> t.cost.(c) <- t.cost.(c) +. k) terms

let value t c =
  let i = t.in_basis.(c) in
  if i >= 0 then t.xb.(i) else if t.at_upper.(c) then t.ub.(c) else 0.0

let is_at_upper t c = t.at_upper.(c)

let basic_objective t cost =
  let obj = ref 0.0 in
  for i = 0 to Array.length t.basis - 1 do
    obj := !obj +. (cost.(t.basis.(i)) *. t.xb.(i))
  done;
  for j = 0 to num_cols t - 1 do
    if t.at_upper.(j) then obj := !obj +. (cost.(j) *. t.ub.(j))
  done;
  !obj

let dual_y t cost =
  let m = Array.length t.basis in
  let cb = Array.make m 0.0 in
  for i = 0 to m - 1 do
    cb.(i) <- cost.(t.basis.(i))
  done;
  Lu.btran (get_factor t) cb

(* Reduced costs d_j = c_j - y . A_j under [cost], 0 on basic columns:
   one BTRAN and one pass over the columns, into the [dwork] workspace
   (which the caller must not keep across another call). *)
let fresh_reduced_costs t cost =
  let n = num_cols t in
  t.dwork <- grow t.dwork n 0.0;
  let d = t.dwork in
  let y = dual_y t cost in
  for j = 0 to n - 1 do
    d.(j) <- (if t.in_basis.(j) >= 0 then 0.0 else cost.(j) -. Sparse.col_dot t.mat j y)
  done;
  d

let compute_direction t j =
  let m = num_rows t in
  let a = Array.make m 0.0 in
  Sparse.iter_col t.mat j (fun r v -> a.(r) <- a.(r) +. v);
  Lu.ftran (get_factor t) a

(* Row [r] of B^-1 as a row-space vector: rho = B^-T e_r, so that
   rho . A_j is entry [r] of the pivot direction for column [j]. *)
let btran_unit t r =
  let m = Array.length t.basis in
  let e = Array.make m 0.0 in
  e.(r) <- 1.0;
  Lu.btran (get_factor t) e

(* The pivot-row workspace, grown to the column count.  [alpha] and
   [seen] are zero except at the previous row's [touched] columns, which
   [fill_pivot_row] clears first. *)
let pivot_row t =
  let n = num_cols t in
  if Array.length t.prow.alpha < n then begin
    let n = max n (2 * Array.length t.prow.alpha) in
    t.prow <-
      {
        alpha = Array.make n 0.0;
        seen = Array.make n false;
        touched = Array.make n 0;
        n = 0;
      }
  end;
  t.prow

(* Row by row over the rows where rho is nonzero, so that each entry
   sums the products [Sparse.col_dot] of rho would, in the same order. *)
let fill_pivot_row t p rho =
  for k = 0 to p.n - 1 do
    let c = p.touched.(k) in
    p.alpha.(c) <- 0.0;
    p.seen.(c) <- false
  done;
  p.n <- 0;
  for i = 0 to Array.length rho - 1 do
    let ri = rho.(i) in
    if ri <> 0.0 then
      p.n <- Sparse.axpy_row t.mat i ri p.alpha ~seen:p.seen ~touched:p.touched p.n
  done

(* d <- d - theta alpha over the nonbasic columns the pivot row reaches,
   then the entering column [q] turns basic (d = 0) and the column
   leaving row [r] nonbasic (its alpha is 1). *)
let update_reduced_costs t d p ~theta ~q ~r =
  for k = 0 to p.n - 1 do
    let c = p.touched.(k) in
    if t.in_basis.(c) < 0 then d.(c) <- d.(c) -. (theta *. p.alpha.(c))
  done;
  d.(q) <- 0.0;
  d.(t.basis.(r)) <- -.theta

(* Basis change at position [row]: entering column [col] at value
   [enter_value], the other basic values having moved by
   [-. s *. delta *. w]; the leaving column lands at 0 or, when
   [leave_upper], at its bound.  Returns whether the pivot triggered a
   refactorization. *)
let do_pivot t ~row ~col ~w ~s ~delta ~enter_value ~leave_upper =
  let m = Array.length t.basis in
  for i = 0 to m - 1 do
    if i <> row then t.xb.(i) <- t.xb.(i) -. (s *. delta *. w.(i))
  done;
  let leaving = t.basis.(row) in
  t.in_basis.(leaving) <- -1;
  t.at_upper.(leaving) <- leave_upper;
  t.basis.(row) <- col;
  t.in_basis.(col) <- row;
  t.at_upper.(col) <- false;
  t.xb.(row) <- enter_value;
  let lu = get_factor t in
  Lu.update lu ~r:row ~w;
  t.stats.m_pivots <- t.stats.m_pivots + 1;
  t.stats.m_eta_max <- max t.stats.m_eta_max (Lu.eta_count lu);
  Sherlock_telemetry.Metrics.Gauge.set g_eta_len (Lu.eta_count lu);
  maybe_refactor t;
  Lu.eta_count (get_factor t) = 0

(* Primal simplex on the current factorization, minimizing [cost], with
   bounded variables: a nonbasic column may enter rising from 0 (reduced
   cost < 0) or falling from its bound (reduced cost > 0), and the ratio
   test admits three events — a basic value hitting 0, a basic value
   hitting its own bound (it leaves at the bound), or the entering
   column traversing its whole range (a bound flip, no basis change).
   Dantzig pricing over the maintained reduced costs, with a permanent
   switch to Bland's rule after a long degenerate streak, which restores
   the termination guarantee; optimality is declared only on reduced
   costs freshly recomputed.  Returns [None] when unbounded. *)
let primal t ~cost =
  let ncols = num_cols t in
  let bland = ref false in
  let degen = ref 0 in
  let m () = Array.length t.basis in
  let p = pivot_row t in
  let d = ref (fresh_reduced_costs t cost) in
  let fresh = ref true in
  let rec loop () =
    check_cap t;
    let dv = !d in
    let best_j = ref (-1) in
    let best_score = ref eps in
    (try
       for j = 0 to ncols - 1 do
         if can_enter t j then begin
           let score = if t.at_upper.(j) then dv.(j) else -.dv.(j) in
           if score > !best_score then begin
             best_j := j;
             best_score := score;
             if !bland then raise Exit
           end
         end
       done
     with Exit -> ());
    if !best_j < 0 then
      if !fresh then Some (basic_objective t cost)
      else begin
        d := fresh_reduced_costs t cost;
        fresh := true;
        loop ()
      end
    else begin
      let j = !best_j in
      let from_upper = t.at_upper.(j) in
      let s = if from_upper then -1.0 else 1.0 in
      let w = compute_direction t j in
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      let leave_upper = ref false in
      let uq = t.ub.(j) in
      if uq < infinity then best_ratio := uq (* bound flip, no basis change *);
      let better ratio i =
        ratio < !best_ratio -. eps
        || ratio < !best_ratio +. eps
           && !best_row >= 0
           && t.basis.(i) < t.basis.(!best_row)
      in
      for i = 0 to m () - 1 do
        let swi = s *. w.(i) in
        if swi > eps then begin
          (* basic value falling toward 0 *)
          let ratio = t.xb.(i) /. swi in
          if better ratio i then begin
            best_row := i;
            best_ratio := ratio;
            leave_upper := false
          end
        end
        else if swi < -.eps then begin
          (* basic value rising toward its own bound *)
          let ubi = t.ub.(t.basis.(i)) in
          if ubi < infinity then begin
            let ratio = (ubi -. t.xb.(i)) /. -.swi in
            if better ratio i then begin
              best_row := i;
              best_ratio := ratio;
              leave_upper := true
            end
          end
        end
      done;
      if !best_ratio = infinity then None
      else begin
        let delta = max 0.0 !best_ratio in
        if delta <= feas_tol then begin
          incr degen;
          if !degen > 100 + (2 * m ()) then bland := true
        end
        else degen := 0;
        if !best_row < 0 then begin
          (* bound flip: x_j jumps between 0 and u_j; the basis and so
             every reduced cost stay *)
          for i = 0 to m () - 1 do
            t.xb.(i) <- t.xb.(i) -. (s *. delta *. w.(i))
          done;
          t.at_upper.(j) <- not from_upper;
          t.stats.m_pivots <- t.stats.m_pivots + 1
        end
        else begin
          let r = !best_row in
          fill_pivot_row t p (btran_unit t r);
          update_reduced_costs t dv p ~theta:(dv.(j) /. w.(r)) ~q:j ~r;
          let refactored =
            do_pivot t ~row:r ~col:j ~w ~s ~delta
              ~enter_value:(if from_upper then uq -. delta else delta)
              ~leave_upper:!leave_upper
          in
          if refactored then d := fresh_reduced_costs t cost;
          fresh := refactored
        end;
        loop ()
      end
    end
  in
  loop ()

(* Bounded-variable dual simplex under the cost vector [cost], which
   the current basis must be dual feasible for: picks the basic variable
   most outside its bounds as leaving, then the entering column by the
   dual ratio test over its pivot row, so reduced costs keep their signs
   while primal feasibility is restored.  Returns [`Feasible] when it
   gets there, [`No_entering] when no column can enter the leaving row
   (the row proves the program infeasible: its basic value cannot reach
   its bound with the nonbasic columns anywhere in theirs), and
   [`Dead_end] at any other dead end: a pivot too small to take, or a
   reduced cost with the wrong sign beyond tolerance — at the start,
   after an update or after a refactorization — which is not a column
   to enter at ratio 0. *)
let dual_simplex t ~cost =
  let m = Array.length t.basis in
  let wrong_sign d j =
    if t.at_upper.(j) then d.(j) > dual_tol else d.(j) < -.dual_tol
  in
  let certified d =
    let ok = ref true in
    for j = 0 to num_cols t - 1 do
      if can_enter t j && wrong_sign d j then ok := false
    done;
    !ok
  in
  let p = pivot_row t in
  let d = ref (fresh_reduced_costs t cost) in
  let rec loop () =
    check_cap t;
    let r = ref (-1) in
    let worst = ref feas_tol in
    let target = ref 0.0 in
    let above = ref false in
    for i = 0 to m - 1 do
      let ubi = t.ub.(t.basis.(i)) in
      if -.t.xb.(i) > !worst then begin
        r := i;
        worst := -.t.xb.(i);
        target := 0.0;
        above := false
      end;
      if t.xb.(i) -. ubi > !worst then begin
        r := i;
        worst := t.xb.(i) -. ubi;
        target := ubi;
        above := true
      end
    done;
    if !r < 0 then `Feasible
    else begin
      let r = !r in
      let target = !target and above = !above in
      let dv = !d in
      fill_pivot_row t p (btran_unit t r);
      let best_j = ref (-1) in
      let best_ratio = ref infinity in
      let best_alpha = ref 0.0 in
      let best_d = ref 0.0 in
      for k = 0 to p.n - 1 do
        let j = p.touched.(k) in
        if can_enter t j then begin
          let alpha = p.alpha.(j) in
          let upper = t.at_upper.(j) in
          let ok =
            if above then if upper then alpha < -.eps else alpha > eps
            else if upper then alpha > eps
            else alpha < -.eps
          in
          if ok then begin
            (* snap within-tolerance noise, never a real violation *)
            let dj = if upper then min 0.0 dv.(j) else max 0.0 dv.(j) in
            let ratio = abs_float dj /. abs_float alpha in
            if
              ratio < !best_ratio -. 1e-12
              || ratio < !best_ratio +. 1e-12
                 && (abs_float alpha > abs_float !best_alpha
                    || abs_float alpha = abs_float !best_alpha && j < !best_j)
            then begin
              best_j := j;
              best_ratio := ratio;
              best_alpha := alpha;
              best_d := dj
            end
          end
        end
      done;
      if !best_j < 0 then `No_entering
      else begin
        let q = !best_j in
        let w = compute_direction t q in
        let wr = w.(r) in
        if abs_float wr < eps then `Dead_end
        else begin
          update_reduced_costs t dv p ~theta:(!best_d /. !best_alpha) ~q ~r;
          let delta = (t.xb.(r) -. target) /. wr in
          let from_upper = t.at_upper.(q) in
          let leaving = t.basis.(r) in
          let refactored =
            do_pivot t ~row:r ~col:q ~w ~s:1.0 ~delta
              ~enter_value:((if from_upper then t.ub.(q) else 0.0) +. delta)
              ~leave_upper:above
          in
          t.stats.m_dual_pivots <- t.stats.m_dual_pivots + 1;
          if refactored then begin
            d := fresh_reduced_costs t cost;
            if certified !d then loop () else `Dead_end
          end
          else begin
            let violated = ref (can_enter t leaving && wrong_sign dv leaving) in
            for k = 0 to p.n - 1 do
              let j = p.touched.(k) in
              if can_enter t j && wrong_sign dv j then violated := true
            done;
            if !violated then `Dead_end else loop ()
          end
        end
      end
    end
  in
  if certified !d then loop () else `Dead_end

let primal_feasible t =
  let ok = ref true in
  Array.iteri
    (fun i b ->
      let ubi = t.ub.(b) in
      if t.xb.(i) < -.feas_tol || t.xb.(i) > ubi +. feas_tol then ok := false)
    t.basis;
  !ok

(* Verify the claimed optimum against the original rows and bounds;
   catches drift accumulated by long incremental pivot sequences. *)
let residuals_ok t =
  let ok = ref true in
  for i = 0 to num_rows t - 1 do
    if !ok then begin
      let s = ref 0.0 in
      Sparse.iter_row t.mat i (fun c a ->
          if t.kind.(c) = Structural then s := !s +. (a *. value t c));
      let slack = 1e-6 *. (1.0 +. abs_float t.rhs.(i)) in
      match t.rel.(i) with
      | Le -> if !s > t.rhs.(i) +. slack then ok := false
      | Ge -> if !s < t.rhs.(i) -. slack then ok := false
      | Eq -> if abs_float (!s -. t.rhs.(i)) > slack then ok := false
    end
  done;
  if !ok then
    for j = 0 to num_cols t - 1 do
      if t.kind.(j) = Structural then begin
        let v = value t j in
        if v < -.feas_tol || v > t.ub.(j) +. feas_tol then ok := false
      end
    done;
  !ok

(* Install a fresh basis, [basic_of i] for each row [i], with every
   nonbasic column at its lower bound. *)
let start_basis t basic_of =
  for c = 0 to num_cols t - 1 do
    t.in_basis.(c) <- -1;
    t.at_upper.(c) <- false
  done;
  let m = num_rows t in
  t.basis <- Array.make m 0;
  for i = 0 to m - 1 do
    let bcol = basic_of i in
    t.basis.(i) <- bcol;
    t.in_basis.(bcol) <- i
  done;
  t.factor <- None;
  t.xb_valid <- false;
  t.have_basis <- true;
  ensure_ready t

(* The one cold start: the slack basis, dual feasible under the costs
   with every negative one raised to 0, then the dual simplex under
   those costs to primal feasibility and the primal under the true
   costs to optimality.  A row no column can enter proves the program
   infeasible; any other dual dead end is numerical trouble. *)
let cold_solve t =
  start_basis t (fun i -> t.slack_of.(i));
  match dual_simplex t ~cost:(Array.map (fun c -> Float.max c 0.0) t.cost) with
  | `No_entering -> `Infeasible
  | `Dead_end -> raise Numerical_trouble
  | `Feasible -> (
    match primal t ~cost:t.cost with
    | None -> `Unbounded
    | Some obj -> `Optimal obj)

(* The cost vector the basis was last proven optimal for.  Columns added
   since cost 0 in it: they have no entry in the rows it was proven on,
   and the rows since have cost-free basic columns, so their reduced
   costs start at 0. *)
let certificate t =
  Array.init (num_cols t) (fun j ->
      if j < Array.length t.opt_cost then t.opt_cost.(j) else 0.0)

let count_reused t =
  Array.fold_left
    (fun acc b -> if t.kind.(b) = Structural then acc + 1 else acc)
    0 t.basis

let reoptimize t =
  let s = t.stats in
  s.m_pivots <- 0;
  s.m_dual_pivots <- 0;
  s.m_warm <- false;
  s.m_reused <- 0;
  s.m_cold <- None;
  s.m_refactors <- 0;
  s.m_eta_max <- 0;
  t.attempt_base <- 0;
  let go_cold cause =
    s.m_cold <- Some cause;
    s.m_warm <- false;
    s.m_reused <- 0;
    t.attempt_base <- s.m_pivots;
    cold_solve t
  in
  let result =
    try
      if not t.have_basis then cold_solve t
      else begin
        let warm_result =
          match
            ensure_ready t;
            if primal_feasible t then begin
              s.m_warm <- true;
              s.m_reused <- count_reused t;
              match primal t ~cost:t.cost with
              | None -> Ok `Unbounded
              | Some obj -> Ok (`Optimal obj)
            end
            else if t.have_opt then begin
              s.m_warm <- true;
              s.m_reused <- count_reused t;
              if
                dual_simplex t ~cost:(certificate t) = `Feasible
                && primal_feasible t
              then begin
                match primal t ~cost:t.cost with
                | None -> Ok `Unbounded
                | Some obj -> Ok (`Optimal obj)
              end
              else Error Dual_repair
            end
            else Error Dual_repair
          with
          | r -> r
          | exception Numerical_trouble -> Error Dual_repair
          | exception Iteration_limit -> Error Pivot_cap
        in
        match warm_result with
        | Ok (`Optimal obj) when residuals_ok t -> `Optimal obj
        | Ok (`Optimal _) -> go_cold Residual
        | Ok `Unbounded -> `Unbounded
        | Error cause -> go_cold cause
      end
    with (Iteration_limit | Numerical_trouble) as e ->
      (* the cold path gave up: leave nothing half-built behind, the
         next solve must start from scratch *)
      t.have_basis <- false;
      t.have_opt <- false;
      t.factor <- None;
      raise e
  in
  (match result with
  | `Optimal _ ->
    t.have_opt <- true;
    t.opt_cost <- Array.sub t.cost 0 (num_cols t);
    t.opt_ncols <- num_cols t
  | `Unbounded | `Infeasible ->
    t.have_opt <- false;
    t.have_basis <- false;
    t.factor <- None);
  result

let last_stats t =
  {
    pivots = t.stats.m_pivots;
    dual_pivots = t.stats.m_dual_pivots;
    warm = t.stats.m_warm;
    reused_basis = t.stats.m_reused;
    cold_restart = t.stats.m_cold;
    refactors = t.stats.m_refactors;
    eta_len = t.stats.m_eta_max;
  }

let row_duals t =
  if t.have_basis && t.have_opt then begin
    ensure_ready t;
    dual_y t t.cost
  end
  else Array.make (num_rows t) 0.0

let reduced_costs t =
  if not (t.have_basis && t.have_opt) then Array.make (num_cols t) 0.0
  else begin
    ensure_ready t;
    Array.sub (fresh_reduced_costs t t.cost) 0 (num_cols t)
  end

let dual_feasible t =
  if not (t.have_basis && t.have_opt) then true
  else begin
    ensure_ready t;
    let d = fresh_reduced_costs t (certificate t) in
    let ok = ref true in
    for j = 0 to num_cols t - 1 do
      if can_enter t j && if t.at_upper.(j) then d.(j) > 1e-6 else d.(j) < -1e-6
      then ok := false
    done;
    !ok
  end
