type var = int

type row_id = int

type status =
  | Solved of float
  | Infeasible
  | Unbounded
  | Aborted

type engine =
  | Dense
  | Sparse

type solve_info = {
  engine : engine;
  pivots : int;
  warm : bool;
  pivots_saved : int;
  presolve_removed_rows : int;
  presolve_fixed_vars : int;
  cold_restarts : int;
  refactors : int;
  eta_len : int;
  bound_rows_saved : int;
}

let no_info engine =
  {
    engine;
    pivots = 0;
    warm = false;
    pivots_saved = 0;
    presolve_removed_rows = 0;
    presolve_fixed_vars = 0;
    cold_restarts = 0;
    refactors = 0;
    eta_len = 0;
    bound_rows_saved = 0;
  }

type crow = {
  c_row : (int * float) list;
  c_rel : Simplex.relation;
  mutable c_rhs : float;
  c_tag : string;
  c_bound : var;
      (* >= 0: virtual upper-bound row of that variable.  Kept in the
         row list so ids, row_info and provenance stay stable and the
         Dense oracle still sees a real constraint, but sparse engines
         get a column bound instead of a row. *)
}

type row_info = {
  ri_tag : string;
  ri_terms : (var * float) list;
  ri_rel : Simplex.relation;
  ri_rhs : float;
}

type duals = {
  d_rows : float array;
  d_vars : float array;
}

(* Incremental-solve state: a live {!Simplex.t} plus watermarks tracking
   which of the problem's variables and rows have been pushed into it.
   Sync is lazy — [solve_incremental] pushes whatever accumulated since
   the previous call and reoptimizes from the existing basis. *)
type istate = {
  sx : Simplex.t;
  mutable vars_pushed : int;
  mutable rows_pushed : int;
  mutable col_of_var : int array;
  mutable row_ids : int array;
}

type t = {
  mutable names : string list; (* reversed *)
  mutable count : int;
  mutable rows : crow array; (* growable; [0, nconstrs) live *)
  mutable nconstrs : int;
  mutable ub_rows : int array; (* growable; per var, its ub row or -1 *)
  mutable ubs : float array; (* growable; per var, its cap or infinity *)
  mutable obj : float array;
      (* growable; per var, its objective coefficient (0 = no term), so
         accumulating a term is O(1) however large the objective is *)
  mutable obj_const : float;
  mutable engine : engine;
  mutable use_presolve : bool;
  mutable istate : istate option;
  mutable info : solve_info;
  mutable capture_duals : bool;
  mutable duals : duals option;
}

let create () =
  {
    names = [];
    count = 0;
    rows =
      Array.make 16
        { c_row = []; c_rel = Simplex.Le; c_rhs = 0.0; c_tag = ""; c_bound = -1 };
    nconstrs = 0;
    ub_rows = Array.make 16 (-1);
    ubs = Array.make 16 infinity;
    obj = Array.make 16 0.0;
    obj_const = 0.0;
    engine = Sparse;
    use_presolve = true;
    istate = None;
    info = no_info Sparse;
    capture_duals = false;
    duals = None;
  }

let set_engine t e = t.engine <- e

let engine t = t.engine

let set_presolve t b = t.use_presolve <- b

let grow_int a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let push_constr t c =
  if t.nconstrs >= Array.length t.rows then begin
    let rows = Array.make (2 * Array.length t.rows) c in
    Array.blit t.rows 0 rows 0 t.nconstrs;
    t.rows <- rows
  end;
  t.rows.(t.nconstrs) <- c;
  t.nconstrs <- t.nconstrs + 1;
  t.nconstrs - 1

let add_constr ?(tag = "") ?(bound = -1) t expr relation rhs =
  push_constr t
    {
      c_row = Linexpr.terms expr;
      c_rel = relation;
      c_rhs = rhs -. Linexpr.constant expr;
      c_tag = tag;
      c_bound = bound;
    }

let grow_float fill a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_var t ?ub name =
  let v = t.count in
  t.count <- v + 1;
  t.names <- name :: t.names;
  t.ub_rows <- grow_int t.ub_rows (v + 1);
  t.ub_rows.(v) <- -1;
  t.ubs <- grow_float infinity t.ubs (v + 1);
  t.ubs.(v) <- infinity;
  (match ub with
  | Some u ->
    t.ubs.(v) <- u;
    t.ub_rows.(v) <-
      add_constr ~tag:("ub:" ^ name) ~bound:v t (Linexpr.var v) Simplex.Le u
  | None -> ());
  v

let ub_row t v =
  if v >= 0 && v < t.count && t.ub_rows.(v) >= 0 then Some t.ub_rows.(v)
  else None

let name t v =
  let arr = Array.of_list (List.rev t.names) in
  if v >= 0 && v < Array.length arr then arr.(v) else Printf.sprintf "_v%d" v

let num_vars t = t.count

let num_rows t = t.nconstrs

let row_info t i =
  let r = t.rows.(i) in
  { ri_tag = r.c_tag; ri_terms = r.c_row; ri_rel = r.c_rel; ri_rhs = r.c_rhs }

let row_activity t i assign =
  List.fold_left (fun s (v, k) -> s +. (k *. assign v)) 0.0 t.rows.(i).c_row

let add_le ?tag t e rhs = ignore (add_constr ?tag t e Simplex.Le rhs)

let add_ge ?tag t e rhs = ignore (add_constr ?tag t e Simplex.Ge rhs)

let add_eq ?tag t e rhs = ignore (add_constr ?tag t e Simplex.Eq rhs)

let add_ge_row ?tag t e rhs = add_constr ?tag t e Simplex.Ge rhs

let set_row_rhs t id rhs =
  t.rows.(id).c_rhs <- rhs;
  match t.istate with
  | Some s when id < s.rows_pushed && s.row_ids.(id) >= 0 ->
    Simplex.set_rhs s.sx s.row_ids.(id) rhs
  | _ -> ()

let add_objective_term t v c =
  t.obj <- grow_float 0.0 t.obj (v + 1);
  t.obj.(v) <- t.obj.(v) +. c

let add_objective t e =
  t.obj_const <- t.obj_const +. Linexpr.constant e;
  List.iter (fun (v, c) -> add_objective_term t v c) (Linexpr.terms e)

let set_objective t e =
  Array.fill t.obj 0 (Array.length t.obj) 0.0;
  t.obj_const <- 0.0;
  add_objective t e

(* Ascending variable order with zero coefficients dropped — exactly
   [Linexpr.terms] of the same terms summed with [Linexpr.add]. *)
let objective_terms t =
  let acc = ref [] in
  for v = Array.length t.obj - 1 downto 0 do
    let c = t.obj.(v) in
    if c <> 0.0 then acc := (v, c) :: !acc
  done;
  !acc

let objective_constant t = t.obj_const

let hinge t ~weight nm e =
  let h = add_var t nm in
  (* h >= e, i.e. e - h <= 0; h >= 0 is implicit. *)
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var h)) 0.0;
  add_objective t (Linexpr.var ~coeff:weight h);
  h

let hinge_var t nm e =
  (* The constraint shape of {!hinge} without the objective term — for
     callers (the incremental encoder) that rebuild the objective each
     round with recomputed weights. *)
  let h = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var h)) 0.0;
  h

let abs t ~weight nm e =
  let a = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var a)) 0.0;
  add_le ~tag:nm t (Linexpr.sub (Linexpr.neg e) (Linexpr.var a)) 0.0;
  add_objective t (Linexpr.var ~coeff:weight a);
  a

let abs_var t nm e =
  let a = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var a)) 0.0;
  add_le ~tag:nm t (Linexpr.sub (Linexpr.neg e) (Linexpr.var a)) 0.0;
  a

let fault : status option ref = ref None

let set_fault s = fault := s

let last_info t = t.info

let set_capture_duals t b = t.capture_duals <- b

let last_duals t = t.duals

let record_info info =
  let module Tm = Sherlock_telemetry.Metrics in
  if Tm.enabled () then begin
    Tm.Counter.incr (Tm.counter "lp.solves");
    Tm.Histogram.observe_int (Tm.histogram "lp.pivots") info.pivots;
    (* Monotone total alongside the per-solve histogram, so the snapshot
       plane can derive pivots/second between any two points. *)
    if info.pivots > 0 then
      Tm.Counter.incr ~by:info.pivots (Tm.counter "lp.pivots.total");
    if info.presolve_removed_rows > 0 then
      Tm.Counter.incr
        ~by:info.presolve_removed_rows
        (Tm.counter "lp.presolve.removed_rows");
    if info.presolve_fixed_vars > 0 then
      Tm.Counter.incr ~by:info.presolve_fixed_vars
        (Tm.counter "lp.presolve.fixed_vars");
    if info.refactors > 0 then
      Tm.Counter.incr ~by:info.refactors (Tm.counter "lp.refactors");
    if info.warm then begin
      Tm.Counter.incr (Tm.counter "lp.warm_start.hits");
      if info.pivots_saved > 0 then
        Tm.Counter.incr ~by:info.pivots_saved
          (Tm.counter "lp.warm_start.pivots_saved")
    end
  end

let record_abort () =
  let module Tm = Sherlock_telemetry.Metrics in
  if Tm.enabled () then Tm.Counter.incr (Tm.counter "lp.aborted")


let constr_list t =
  let acc = ref [] in
  for i = t.nconstrs - 1 downto 0 do
    let r = t.rows.(i) in
    acc := { Simplex.row = r.c_row; relation = r.c_rel; rhs = r.c_rhs } :: !acc
  done;
  !acc

let finish t info outcome =
  t.info <- info;
  record_info info;
  match outcome with
  | Simplex.Optimal { objective = obj; solution } ->
    let obj = obj +. t.obj_const in
    ( Solved obj,
      fun v ->
        if v >= 0 && v < Array.length solution then solution.(v) else 0.0 )
  | Simplex.Infeasible -> (Infeasible, fun _ -> 0.0)
  | Simplex.Unbounded -> (Unbounded, fun _ -> 0.0)

(* Sparse engines never see the virtual bound rows: split them out,
   remembering where each surviving constraint landed ([spos], -1 for
   bound rows) and how many rows the bounds saved. *)
let sparse_parts t =
  let n = t.nconstrs in
  let spos = Array.make (max 1 n) (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if t.rows.(i).c_bound < 0 then begin
      spos.(i) <- !next;
      incr next
    end
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let r = t.rows.(i) in
    if r.c_bound < 0 then
      acc := { Simplex.row = r.c_row; relation = r.c_rel; rhs = r.c_rhs } :: !acc
  done;
  (!acc, spos, n - !next)

let ub_array t = Array.sub t.ubs 0 (max 1 t.count)

(* Duals of a sparse solve, read off the live solver state and mapped
   back to problem coordinates.  [row_map]/[var_map] translate original
   row/variable indices to solver ids (-1: removed).  A virtual bound
   row has no simplex row; its dual is synthesized from the bounded
   column exactly as the explicit cap row would have carried it — the
   variable's reduced cost when it sits at its upper bound (the cap
   binding, rc <= 0), 0 otherwise — and the variable's own reduced cost
   is reported 0 in that case, matching the basic variable of the
   explicit-row formulation. *)
let capture_sparse t sx ~row_map ~var_map =
  let rd = Simplex.row_duals sx in
  let rc = Simplex.reduced_costs sx in
  let ncols = Simplex.num_cols sx in
  let at_upper v =
    let c = var_map v in
    c >= 0 && c < ncols && Simplex.is_at_upper sx c
  in
  let rc_of v =
    let c = var_map v in
    if c >= 0 && c < Array.length rc then rc.(c) else 0.0
  in
  let d_rows =
    Array.init t.nconstrs (fun i ->
        let b = t.rows.(i).c_bound in
        if b >= 0 then if at_upper b then rc_of b else 0.0
        else begin
          let m = row_map i in
          if m >= 0 && m < Array.length rd then rd.(m) else 0.0
        end)
  in
  let d_vars =
    Array.init t.count (fun v -> if at_upper v then 0.0 else rc_of v)
  in
  t.duals <- Some { d_rows; d_vars }

let aborted t info =
  t.info <- info;
  record_info info;
  record_abort ();
  (let module L = Sherlock_telemetry.Log in
   L.warn "lp.aborted"
     [
       ("pivots", L.Int info.pivots);
       ("refactors", L.Int info.refactors);
       ("vars", L.Int t.count);
       ("constraints", L.Int t.nconstrs);
     ]);
  (Aborted, fun _ -> 0.0)

let stat_info base (st : Simplex.stats) =
  {
    base with
    pivots = st.pivots;
    warm = st.warm;
    pivots_saved = st.reused_basis;
    cold_restarts = st.cold_restarts;
    refactors = st.refactors;
    eta_len = st.eta_len;
  }

let solve t =
  t.duals <- None;
  match !fault with
  | Some s -> (s, fun _ -> 0.0)
  | None -> (
    let objective = objective_terms t in
    match t.engine with
    | Dense ->
      let constrs = constr_list t in
      let outcome, pivots =
        Dense.solve_counted ~num_vars:t.count ~objective constrs
      in
      finish t { (no_info Dense) with pivots } outcome
    | Sparse -> (
      let constrs, spos, saved = sparse_parts t in
      let ub = ub_array t in
      let base = { (no_info Sparse) with bound_rows_saved = saved } in
      if not t.use_presolve then begin
        match Simplex.solve_tableau ~ub ~num_vars:t.count ~objective constrs with
        | exception Simplex.Iteration_limit -> aborted t base
        | outcome, st, sx ->
          if t.capture_duals then
            (match outcome with
            | Simplex.Optimal _ ->
              capture_sparse t sx
                ~row_map:(fun i -> spos.(i))
                ~var_map:(fun v -> v)
            | _ -> ());
          finish t (stat_info base st) outcome
      end
      else begin
        let r = Presolve.run ~num_vars:t.count ~objective ~ub constrs in
        let base =
          {
            base with
            presolve_removed_rows = r.Presolve.r_stats.removed_rows;
            presolve_fixed_vars = r.Presolve.r_stats.fixed_vars;
          }
        in
        if r.Presolve.r_infeasible then finish t base Simplex.Infeasible
        else begin
          match
            Simplex.solve_tableau ~ub ~num_vars:t.count
              ~objective:r.Presolve.r_objective r.Presolve.r_constrs
          with
          | exception Simplex.Iteration_limit -> aborted t base
          | outcome, st, sx -> (
            if t.capture_duals then
              (match outcome with
              | Simplex.Optimal _ ->
                capture_sparse t sx
                  ~row_map:(fun i ->
                    if spos.(i) < 0 then -1
                    else r.Presolve.r_row_map.(spos.(i)))
                  ~var_map:(fun v -> r.Presolve.r_var_map.(v))
              | _ -> ());
            let base = stat_info base st in
            match outcome with
            | Simplex.Optimal { objective = obj; solution } ->
              let restore =
                r.Presolve.r_restore (fun v ->
                    if v >= 0 && v < Array.length solution then solution.(v)
                    else 0.0)
              in
              let full = Array.init t.count restore in
              finish t base
                (Simplex.Optimal
                   { objective = obj +. r.Presolve.r_offset; solution = full })
            | o -> finish t base o)
        end
      end))

let solve_incremental t =
  t.duals <- None;
  match !fault with
  | Some s -> (s, fun _ -> 0.0)
  | None ->
    let s =
      match t.istate with
      | Some s -> s
      | None ->
        let s =
          {
            sx = Simplex.create ();
            vars_pushed = 0;
            rows_pushed = 0;
            col_of_var = Array.make 64 (-1);
            row_ids = Array.make 64 (-1);
          }
        in
        t.istate <- Some s;
        s
    in
    (* Push whatever accumulated since the previous solve.  Virtual
       bound rows are skipped — their variable's column carries the cap
       directly. *)
    s.col_of_var <- grow_int s.col_of_var t.count;
    for v = s.vars_pushed to t.count - 1 do
      s.col_of_var.(v) <- Simplex.add_col ~ub:t.ubs.(v) s.sx
    done;
    s.vars_pushed <- t.count;
    s.row_ids <- grow_int s.row_ids t.nconstrs;
    let saved = ref 0 in
    for i = s.rows_pushed to t.nconstrs - 1 do
      let r = t.rows.(i) in
      if r.c_bound >= 0 then s.row_ids.(i) <- -1
      else begin
        let entries = List.map (fun (v, k) -> (s.col_of_var.(v), k)) r.c_row in
        s.row_ids.(i) <- Simplex.add_row s.sx entries r.c_rel r.c_rhs
      end
    done;
    s.rows_pushed <- t.nconstrs;
    for i = 0 to t.nconstrs - 1 do
      if s.row_ids.(i) < 0 then incr saved
    done;
    Simplex.set_objective s.sx
      (List.map (fun (v, k) -> (s.col_of_var.(v), k)) (objective_terms t));
    match Simplex.reoptimize s.sx with
    | exception Simplex.Iteration_limit ->
      (* The solver invalidated itself; the warm state stays usable for
         later rounds (the next reoptimize starts cold). *)
      aborted t { (no_info Sparse) with bound_rows_saved = !saved }
    | result ->
    let st = Simplex.last_stats s.sx in
    let info =
      stat_info { (no_info Sparse) with bound_rows_saved = !saved } st
    in
    t.info <- info;
    record_info info;
    (match result with
    | `Optimal obj ->
      if t.capture_duals then
        (* Exact multipliers of the live state: [row_ids]/[col_of_var]
           translate problem row/var indices to solver ids.  Reading
           them never perturbs the basis, so verdicts are bitwise
           identical with capture on or off. *)
        capture_sparse t s.sx
          ~row_map:(fun i -> s.row_ids.(i))
          ~var_map:(fun v -> s.col_of_var.(v));
      let obj = obj +. t.obj_const in
      (* Snapshot: the solver state stays live inside [t] (later rhs
         edits move its basic solution), but the assignment handed out
         must keep describing THIS solve. *)
      let snap =
        Array.init t.count (fun v -> Simplex.value s.sx s.col_of_var.(v))
      in
      ( Solved obj,
        fun v -> if v >= 0 && v < Array.length snap then snap.(v) else 0.0 )
    | `Infeasible -> (Infeasible, fun _ -> 0.0)
    | `Unbounded -> (Unbounded, fun _ -> 0.0))

let pp_stats ppf t =
  Format.fprintf ppf "lp: %d vars, %d constraints" t.count t.nconstrs
