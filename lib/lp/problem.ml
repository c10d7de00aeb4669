type var = int

type row_id = int

type status =
  | Solved of float
  | Infeasible
  | Unbounded
  | Aborted
  | Numerical

let status_name = function
  | Solved _ -> "solved"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Aborted -> "pivot cap"
  | Numerical -> "numerical failure"

type solve_info = {
  pivots : int;
  dual_pivots : int;
  warm : bool;
  pivots_saved : int;
  cold_restart : Simplex.restart option;
  refactors : int;
  eta_len : int;
  bound_rows_saved : int;
}

type crow = {
  c_row : (int * float) list;
  c_rel : Simplex.relation;
  mutable c_rhs : float;
  c_tag : string;
  c_bound : var;
      (* >= 0: virtual upper-bound row of that variable.  Kept in the
         row list so ids, row_info and provenance stay stable (and a
         reference solver reading row_info sees a real constraint), but
         the simplex gets a column bound instead of a row. *)
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
  (* The live solver plus watermarks tracking which variables and rows
     have been pushed into it.  Sync is lazy: [solve] pushes whatever
     accumulated since the previous call and reoptimizes from the
     existing basis. *)
  sx : Simplex.t;
  mutable vars_pushed : int;
  mutable rows_pushed : int;
  mutable col_of_var : int array; (* per var, its simplex column *)
  mutable row_ids : int array; (* per row, its simplex row or -1 *)
  mutable bound_rows : int; (* pushed rows kept out as column bounds *)
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
    sx = Simplex.create ();
    vars_pushed = 0;
    rows_pushed = 0;
    col_of_var = Array.make 64 (-1);
    row_ids = Array.make 64 (-1);
    bound_rows = 0;
    info =
      {
        pivots = 0;
        dual_pivots = 0;
        warm = false;
        pivots_saved = 0;
        cold_restart = None;
        refactors = 0;
        eta_len = 0;
        bound_rows_saved = 0;
      };
    capture_duals = false;
    duals = None;
  }

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
  if id < t.rows_pushed && t.row_ids.(id) >= 0 then
    Simplex.set_rhs t.sx t.row_ids.(id) rhs

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

let hinge t nm e =
  let h = add_var t nm in
  (* h >= e, i.e. e - h <= 0; h >= 0 is implicit. *)
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var h)) 0.0;
  h

let abs t nm e =
  let a = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var a)) 0.0;
  add_le ~tag:nm t (Linexpr.sub (Linexpr.neg e) (Linexpr.var a)) 0.0;
  a

let fault : status option ref = ref None

let set_fault s = fault := s

let last_info t = t.info

let set_capture_duals t b = t.capture_duals <- b

let last_duals t = t.duals

let restart_counter = function
  | Simplex.Residual -> "lp.cold_restart.residual"
  | Simplex.Dual_repair -> "lp.cold_restart.dual_repair"
  | Simplex.Pivot_cap -> "lp.cold_restart.pivot_cap"

let record_info info =
  let module Tm = Sherlock_telemetry.Metrics in
  if Tm.enabled () then begin
    Tm.Counter.incr (Tm.counter "lp.solves");
    Tm.Histogram.observe_int (Tm.histogram "lp.pivots") info.pivots;
    (* Monotone total alongside the per-solve histogram, so the snapshot
       plane can derive pivots/second between any two points. *)
    if info.pivots > 0 then
      Tm.Counter.incr ~by:info.pivots (Tm.counter "lp.pivots.total");
    if info.dual_pivots > 0 then
      Tm.Counter.incr ~by:info.dual_pivots (Tm.counter "lp.dual_pivots");
    if info.refactors > 0 then
      Tm.Counter.incr ~by:info.refactors (Tm.counter "lp.refactors");
    Option.iter
      (fun cause -> Tm.Counter.incr (Tm.counter (restart_counter cause)))
      info.cold_restart;
    if info.warm then begin
      Tm.Counter.incr (Tm.counter "lp.warm_start.hits");
      if info.pivots_saved > 0 then
        Tm.Counter.incr ~by:info.pivots_saved
          (Tm.counter "lp.warm_start.pivots_saved")
    end
  end

(* Duals of the last optimum, read off the live solver state and mapped
   back to problem coordinates through the row/column watermark maps.
   A virtual bound row has no simplex row; its dual is synthesized from
   the bounded column exactly as the explicit cap row would have carried
   it — the variable's reduced cost when it sits at its upper bound (the
   cap binding, rc <= 0), 0 otherwise — and the variable's own reduced
   cost is reported 0 in that case, matching the basic variable of the
   explicit-row formulation.  Reading them never perturbs the basis, so
   verdicts are bitwise identical with capture on or off. *)
let capture_duals_of t =
  let rd = Simplex.row_duals t.sx in
  let rc = Simplex.reduced_costs t.sx in
  let at_upper v = Simplex.is_at_upper t.sx t.col_of_var.(v) in
  let rc_of v = rc.(t.col_of_var.(v)) in
  let d_rows =
    Array.init t.nconstrs (fun i ->
        let b = t.rows.(i).c_bound in
        if b >= 0 then if at_upper b then rc_of b else 0.0
        else rd.(t.row_ids.(i)))
  in
  let d_vars =
    Array.init t.count (fun v -> if at_upper v then 0.0 else rc_of v)
  in
  t.duals <- Some { d_rows; d_vars }

(* The simplex gave up: the pivot cap ([Aborted]) or a numerical
   breakdown ([Numerical]).  It invalidated itself, so the state stays
   usable for later solves (the next reoptimize starts cold). *)
let gave_up t status event info =
  let module Tm = Sherlock_telemetry.Metrics in
  if Tm.enabled () then Tm.Counter.incr (Tm.counter event);
  (let module L = Sherlock_telemetry.Log in
   L.warn event
     [
       ("pivots", L.Int info.pivots);
       ("refactors", L.Int info.refactors);
       ("vars", L.Int t.count);
       ("constraints", L.Int t.nconstrs);
     ]);
  (status, fun _ -> 0.0)

(* Push whatever accumulated since the previous solve.  Virtual bound
   rows are skipped — their variable's column carries the cap directly.
   Returns how many rows the bounds kept out of the matrix. *)
let sync t =
  t.col_of_var <- grow_int t.col_of_var t.count;
  for v = t.vars_pushed to t.count - 1 do
    t.col_of_var.(v) <- Simplex.add_col ~ub:t.ubs.(v) t.sx
  done;
  t.vars_pushed <- t.count;
  t.row_ids <- grow_int t.row_ids t.nconstrs;
  for i = t.rows_pushed to t.nconstrs - 1 do
    let r = t.rows.(i) in
    if r.c_bound >= 0 then begin
      t.row_ids.(i) <- -1;
      t.bound_rows <- t.bound_rows + 1
    end
    else begin
      let entries = List.map (fun (v, k) -> (t.col_of_var.(v), k)) r.c_row in
      t.row_ids.(i) <- Simplex.add_row t.sx entries r.c_rel r.c_rhs
    end
  done;
  t.rows_pushed <- t.nconstrs;
  Simplex.set_objective t.sx
    (List.map (fun (v, k) -> (t.col_of_var.(v), k)) (objective_terms t));
  t.bound_rows

let solve t =
  t.duals <- None;
  match !fault with
  | Some s -> (s, fun _ -> 0.0)
  | None -> (
    let bound_rows_saved = sync t in
    let result =
      match Simplex.reoptimize t.sx with
      | r -> Ok r
      | exception Simplex.Iteration_limit -> Error (Aborted, "lp.aborted")
      | exception Simplex.Numerical_trouble ->
        Error (Numerical, "lp.numerical")
    in
    (* The counts cover the whole attempt, a given-up one included. *)
    let st = Simplex.last_stats t.sx in
    let info =
      {
        pivots = st.pivots;
        dual_pivots = st.dual_pivots;
        warm = st.warm;
        pivots_saved = st.reused_basis;
        cold_restart = st.cold_restart;
        refactors = st.refactors;
        eta_len = st.eta_len;
        bound_rows_saved;
      }
    in
    t.info <- info;
    record_info info;
    match result with
    | Error (status, event) -> gave_up t status event info
    | Ok (`Optimal obj) ->
      if t.capture_duals then capture_duals_of t;
      (* Snapshot: the solver state stays live inside [t] (later rhs
         edits move its basic solution), but the assignment handed out
         must keep describing THIS solve. *)
      let snap =
        Array.init t.count (fun v -> Simplex.value t.sx t.col_of_var.(v))
      in
      ( Solved (obj +. t.obj_const),
        fun v -> if v >= 0 && v < Array.length snap then snap.(v) else 0.0 )
    | Ok `Infeasible -> (Infeasible, fun _ -> 0.0)
    | Ok `Unbounded -> (Unbounded, fun _ -> 0.0))

let pp_stats ppf t =
  Format.fprintf ppf "lp: %d vars, %d constraints" t.count t.nconstrs
