open Sherlock_trace
open Sherlock_lp

(* LP-engine counters aggregated over every simplex call of one round
   (the base solve plus each rounding-pin re-solve). *)
type lp_stats = {
  lp_solves : int;
  lp_pivots : int;
  lp_warm_solves : int;  (* solves that started from a previous basis *)
  lp_base_warm : bool;  (* the round's first (base) solve did *)
  lp_pivots_saved : int;
  lp_merged_sides : int;
      (* window sides mapped onto an existing hinge by the incremental
         encoder (cumulative over the state's lifetime) *)
  lp_cold_restarts : int;
  lp_refactors : int;
  lp_eta_len : int; (* longest basis eta file any solve reached *)
  lp_bound_rows_saved : int;
      (* cap rows the bounded-variable encoding kept out of the matrix *)
}

let zero_lp =
  {
    lp_solves = 0;
    lp_pivots = 0;
    lp_warm_solves = 0;
    lp_base_warm = false;
    lp_pivots_saved = 0;
    lp_merged_sides = 0;
    lp_cold_restarts = 0;
    lp_refactors = 0;
    lp_eta_len = 0;
    lp_bound_rows_saved = 0;
  }

let fold_lp acc (i : Problem.solve_info) =
  {
    acc with
    lp_solves = acc.lp_solves + 1;
    lp_pivots = acc.lp_pivots + i.pivots;
    lp_warm_solves = (acc.lp_warm_solves + if i.warm then 1 else 0);
    lp_base_warm = (if acc.lp_solves = 0 then i.warm else acc.lp_base_warm);
    lp_pivots_saved = acc.lp_pivots_saved + i.pivots_saved;
    lp_cold_restarts =
      (acc.lp_cold_restarts + if i.cold_restart = None then 0 else 1);
    lp_refactors = acc.lp_refactors + i.refactors;
    lp_eta_len = max acc.lp_eta_len i.eta_len;
    lp_bound_rows_saved = max acc.lp_bound_rows_saved i.bound_rows_saved;
  }

type solve_stats = {
  num_vars : int;
  num_windows : int;
  objective : float;
  degraded : bool;
  status : Problem.status;
  lp : lp_stats;
  trace : Metrics.t;
  evidence : Sherlock_provenance.Provenance.verdict_evidence list;
}

type role = Verdict.role =
  | Acquire
  | Release

(* Which roles an operation kind can play.  With the Read-Acquire &
   Write-Release property this is Equation (1): the infeasible variables
   are simply never created (equivalent to pinning them to 0). *)
let feasible_roles (config : Config.t) (op : Opid.t) =
  if config.use_role_property then
    match op.kind with
    | Opid.Read | Opid.Begin -> [ Acquire ]
    | Opid.Write | Opid.End -> [ Release ]
  else [ Acquire; Release ]

let role_ok config op role = List.mem role (feasible_roles config op)

let role_suffix = function Acquire -> "^acq" | Release -> "^rel"

(* Deterministic symmetry breaking.  The encoding regularly has multiple
   optimal vertices (two candidates covering the same windows at the same
   cost); which one a simplex run lands on depends on pivot order, which
   differs between a cold solve and a warm one.  A tiny per-variable cost
   keyed on the operation's identity (not its variable id) makes the
   optimum generically unique, so warm and cold solves report the same
   verdicts.  The magnitude — at most 2e-6 per variable — is far above
   the solver's 1e-9 tolerance and far below any data-driven cost
   difference. *)
let tie_cost op role =
  let h = Hashtbl.hash (Opid.to_string op ^ role_suffix role) in
  1e-6 *. (1.0 +. (float_of_int h /. 1073741824.0))

(* A candidate's probability variable with its tie-break cost, which
   depends only on the operation's identity and so is hashed once, when
   the variable is created. *)
type cand = {
  var : Problem.var;
  tie : float;
}

(* The variable table.  Its iteration order decides the term order of
   each [pair_c] balance row and the visiting order of [pick_pin],
   [extract_verdicts] and [add_data_costs], and so the last bits of the
   LP.  The hash is therefore the polymorphic hash of the names, kind and
   role, exactly the bits of the record before ops carried an id, and
   never the id (ids follow creation order). *)
module Var_tbl = Hashtbl.Make (struct
  type t = Opid.t * role

  let equal ((a : Opid.t), r) ((b : Opid.t), s) = Opid.equal a b && r = s
  let hash ((op : Opid.t), role) = Hashtbl.hash ((op.cls, op.member, op.kind), role)
end)

type vars = {
  problem : Problem.t;
  table : cand Var_tbl.t;
}

let find_var table op role =
  match Var_tbl.find_opt table (op, role) with
  | Some c -> Some c.var
  | None -> None

let var_of vars op role =
  match Var_tbl.find_opt vars.table (op, role) with
  | Some c -> c.var
  | None ->
    let var =
      Problem.add_var vars.problem ~ub:1.0 (Opid.to_string op ^ role_suffix role)
    in
    Var_tbl.add vars.table (op, role) { var; tie = tie_cost op role };
    var

(* Sum of role variables over the distinct ops of a window side (each op
   subtracted once regardless of its dynamic occurrence count — paper
   §4.2, "we always only subtract its corresponding probability variable
   once"). *)
let side_sum config vars side role =
  Windows.Side.fold
    (fun op _count acc ->
      if role_ok config op role then Linexpr.add acc (Linexpr.var (var_of vars op role))
      else acc)
    side Linexpr.zero

(* The variable set of a side's sum (all coefficients are 1), used to
   recognize two window sides that produce the identical hinge row. *)
let side_key config vars side role =
  Windows.Side.fold
    (fun op _count acc ->
      if role_ok config op role then var_of vars op role :: acc else acc)
    side []
  |> List.sort_uniq compare

(* Largest fractional variable to pin to 1 during rounding.  Values
   within 1e-6 of the maximum count as tied (different pivot sequences
   leave different last-bit noise on the same vertex), and ties break on
   the operation's name — stable across cold and warm solves, unlike
   variable ids or hash-table iteration order. *)
let pick_pin (config : Config.t) table assignment =
  let cands = ref [] in
  Var_tbl.iter
    (fun (op, role) { var = v; _ } ->
      let p = assignment v in
      if p > 0.15 && p < config.threshold then
        cands := (Opid.to_string op ^ role_suffix role, p, v) :: !cands)
    table;
  match !cands with
  | [] -> None
  | l ->
    let pmax = List.fold_left (fun acc (_, p, _) -> Float.max acc p) 0.0 l in
    let _, p, v =
      List.fold_left
        (fun (bn, bp, bv) (n, p, v) ->
          if p >= pmax -. 1e-6 && (bn = "" || n < bn) then (n, p, v)
          else (bn, bp, bv))
        ("", 0.0, -1) l
    in
    Some (v, p)

let extract_verdicts (config : Config.t) table assignment =
  Var_tbl.fold
    (fun (op, role) { var = v; _ } acc ->
      let p = assignment v in
      if p >= config.threshold then { Verdict.op; role; probability = p } :: acc
      else acc)
    table []
  |> List.sort Verdict.compare

(* Per-verdict evidence for the provenance sidecar: the windows whose
   relevant side mentions the op, every LP row touching its variable
   (with activity, coefficient, and dual), and the confidence margin —
   the negated dual of the variable's [p <= 1] cap.  Round attribution
   ([w_round], [v_first_round], [v_stable_round]) belongs to the
   orchestrator, which patches the 0 placeholders written here. *)
let capture_evidence (config : Config.t) obs problem table verdicts assignment
    =
  let module P = Sherlock_provenance.Provenance in
  let duals = Problem.last_duals problem in
  let dual_of_row i =
    match duals with
    | Some d when i < Array.length d.Problem.d_rows -> d.Problem.d_rows.(i)
    | _ -> 0.0
  in
  let rc_of_var v =
    match duals with
    | Some d when v < Array.length d.Problem.d_vars -> d.Problem.d_vars.(v)
    | _ -> 0.0
  in
  (* One pass over the rows builds var -> rows-mentioning-it for exactly
     the verdict variables. *)
  let verdict_vars : (Problem.var, (int * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (v : Verdict.t) ->
      match find_var table v.op v.role with
      | Some var ->
        if not (Hashtbl.mem verdict_vars var) then
          Hashtbl.add verdict_vars var (ref [])
      | None -> ())
    verdicts;
  for i = 0 to Problem.num_rows problem - 1 do
    let ri = Problem.row_info problem i in
    List.iter
      (fun (v, k) ->
        match Hashtbl.find_opt verdict_vars v with
        | Some rows -> rows := (i, k) :: !rows
        | None -> ())
      ri.Problem.ri_terms
  done;
  let coord_of (c : Windows.coord) =
    {
      P.c_time1 = c.first_time;
      c_tid1 = c.first_tid;
      c_time2 = c.second_time;
      c_tid2 = c.second_tid;
    }
  in
  let windows_for op role =
    let side_name = match role with Release -> "rel" | Acquire -> "acq" in
    let acc = ref [] in
    for i = Observations.window_count obs - 1 downto 0 do
      let w = Observations.window_at obs i in
      if
        not (config.use_race_removal && Observations.is_racy_pair obs w.pair)
      then begin
        let side = match role with Release -> w.rel | Acquire -> w.acq in
        match Windows.Side.find_opt op side with
        | Some count ->
          acc :=
            {
              P.w_id = i;
              w_first = Opid.to_string (fst w.pair);
              w_second = Opid.to_string (snd w.pair);
              w_field = w.field;
              w_side = side_name;
              w_count = count;
              w_weight = w.weight;
              w_round = 0;
              w_coords = List.map coord_of w.coords;
            }
            :: !acc
        | None -> ()
      end
    done;
    !acc
  in
  let rel_name = function
    | Simplex.Le -> "<="
    | Simplex.Ge -> ">="
    | Simplex.Eq -> "="
  in
  let constraints_for var =
    match Hashtbl.find_opt verdict_vars var with
    | None -> []
    | Some rows ->
      List.rev_map
        (fun (i, coeff) ->
          let ri = Problem.row_info problem i in
          let activity = Problem.row_activity problem i assignment in
          {
            P.c_tag = ri.Problem.ri_tag;
            c_rel = rel_name ri.Problem.ri_rel;
            c_rhs = ri.Problem.ri_rhs;
            c_activity = activity;
            c_coeff = coeff;
            c_dual = dual_of_row i;
            c_binding =
              abs_float (activity -. ri.Problem.ri_rhs)
              <= 1e-6 *. (1.0 +. abs_float ri.Problem.ri_rhs);
          })
        !rows
  in
  List.filter_map
    (fun (v : Verdict.t) ->
      match find_var table v.op v.role with
      | None -> None
      | Some var ->
        let margin =
          match Problem.ub_row problem var with
          | Some row -> -.dual_of_row row
          | None -> 0.0
        in
        Some
          {
            P.v_op = Opid.to_string v.op;
            v_role = Verdict.role_name v.role;
            v_probability = v.probability;
            v_margin = margin;
            v_reduced_cost = rc_of_var var;
            v_first_round = 0;
            v_stable_round = 0;
            v_windows = windows_for v.op v.role;
            v_constraints = constraints_for var;
          })
    verdicts

module Tspan = Sherlock_telemetry.Span

(* The [objective_terms] attribute of the innermost span: the objective's
   nonzero terms, listed only when a collector will record them. *)
let note_objective problem =
  if Tspan.current_collector () <> None then
    Tspan.add_attr "objective_terms"
      (Tspan.Int (List.length (Problem.objective_terms problem)))

(* The LP relaxation occasionally leaves a tie split fractionally (for
   example 0.5/0.5 across a Single-Role pair), which the paper's
   "variables assigned 1" reading would silently drop.  Round by
   repeatedly pinning the largest fractional variable to 1 and
   re-solving — a cheap branch-free integrality repair.  [pin] adds one
   pin row. *)
let solve_rounded config problem table ~pin =
  Tspan.with_span ~name:"lp" @@ fun () ->
  let lp = ref zero_lp in
  let rec go budget =
    let status, assignment = Problem.solve problem in
    lp := fold_lp !lp (Problem.last_info problem);
    let solved = match status with Problem.Solved _ -> true | _ -> false in
    if budget = 0 || not solved then (status, assignment)
    else
      match pick_pin config table assignment with
      | None -> (status, assignment)
      | Some (v, _) ->
        pin v;
        go (budget - 1)
  in
  let status, assignment = go 25 in
  Tspan.add_attr "solves" (Tspan.Int !lp.lp_solves);
  Tspan.add_attr "pivots" (Tspan.Int !lp.lp_pivots);
  (status, assignment, !lp)

(* Verdicts, stats and telemetry of one solve. *)
let finish (config : Config.t) obs problem table ~num_windows ~lp ~previous
    status assignment =
  let objective = match status with Problem.Solved obj -> obj | _ -> nan in
  let degraded = match status with Problem.Solved _ -> false | _ -> true in
  let verdicts =
    if degraded then
      (* Infeasible / unbounded program: rather than aborting the whole
         inference, fall back on the previous round's verdicts so the
         perturber keeps a sensible delay plan and later rounds can
         recover. *)
      previous
    else extract_verdicts config table assignment
  in
  let evidence =
    if config.provenance && not degraded then
      capture_evidence config obs problem table verdicts assignment
    else []
  in
  Tspan.add_attr "vars" (Tspan.Int (Problem.num_vars problem));
  Tspan.add_attr "windows" (Tspan.Int num_windows);
  Tspan.add_attr "verdicts" (Tspan.Int (List.length verdicts));
  Tspan.add_attr "objective" (Tspan.Float objective);
  Tspan.add_attr "pivots" (Tspan.Int lp.lp_pivots);
  if degraded then Tspan.add_attr "degraded" (Tspan.Bool true);
  ( verdicts,
    {
      num_vars = Problem.num_vars problem;
      num_windows;
      objective;
      degraded;
      status;
      lp;
      trace = Metrics.copy (Observations.metrics obs);
      evidence;
    } )

(* The data-driven objective costs of every candidate variable.  Each
   variable receives its terms in a fixed order — the tie-break, then
   Synchronizations are Rare (Equations 3 and 4), then Acquisition-Time
   Mostly Varies (Equation 5: penalize begin^acq of methods whose
   duration varies little compared to the others) — so its summed
   coefficient's bits depend only on the observations.  Occurrence
   averages and duration percentiles are tabulated once per
   call, keeping the whole pass linear in the observations. *)
let add_data_costs (config : Config.t) obs table add =
  let lambda = config.lambda in
  let avg_occurrence =
    if config.use_rare then Observations.avg_occurrences obs else fun _ -> 0.0
  in
  let cv_percentile =
    if config.use_variation then
      Durations.cv_percentiles (Observations.durations obs)
    else fun _ -> 0.0
  in
  Var_tbl.iter
    (fun ((op : Opid.t), role) { var; tie } ->
      add var tie;
      if config.use_rare then begin
        let rare = config.rare_coeff *. avg_occurrence op in
        add var (lambda *. (1.0 +. rare))
      end;
      if config.use_variation && role = Acquire && op.kind = Opid.Begin then begin
        let coeff = lambda *. (1.0 -. cv_percentile (Opid.method_key op)) in
        if coeff > 0.0 then add var coeff
      end)
    table

(* ------------------------------------------------------------------ *)
(* A [state] keeps the LP, the variable table, and per-window hinge
   cells alive across rounds.  Each round encodes only the window suffix
   added since the previous round (Observations ids are stable),
   recomputes the data-dependent weights, and reoptimizes the live
   simplex from the previous basis.  A solve without a state is a solve
   through a fresh one: the same encoding, solved cold.

   Invariants making this sound (see DESIGN.md):
   - window identity never changes, only its weight grows, and weights
     appear only in the objective — so a re-observed window is an
     objective edit, not a constraint edit;
   - race removal zeroes a hinge's weight, leaving its rows vacuous;
   - candidate variables appearing only in racy windows carry a strictly
     positive rare cost and no compensating weight, so they stay 0 at
     every optimum;
   - rounding pins are relaxed to [x >= 0] after each round, so they
     never constrain later rounds. *)

type state = {
  mutable s_obs : Observations.t option;  (* physical identity guard *)
  mutable s_vars : vars;
  mutable s_hinges : (Problem.var list, Problem.var) Hashtbl.t;
      (* side variable-set -> its hinge; distinct window sides with the
         same candidate variables share one hinge row (their weights
         add) *)
  mutable s_whinges : (Problem.var option * Problem.var option) array;
      (* window id -> (release hinge, acquire hinge) *)
  mutable s_nwin : int;  (* windows encoded so far (watermark) *)
  mutable s_merged : int;
  mutable s_class_abs : (string, (Problem.var * float) list * Problem.var) Hashtbl.t;
      (* class -> (sorted balance terms, abs var); a new method variable
         changes the terms and allocates a fresh abs var — the old one
         keeps its rows but drops out of the objective *)
  mutable s_field_abs :
    (string, (Problem.var * float) list * Problem.var) Hashtbl.t;
  mutable s_single : (string, Problem.var option) Hashtbl.t;
      (* method key -> soft-mode hinge ([None] = hard constraint added) *)
}

let create_state () =
  {
    s_obs = None;
    s_vars = { problem = Problem.create (); table = Var_tbl.create 64 };
    s_hinges = Hashtbl.create 64;
    s_whinges = [||];
    s_nwin = 0;
    s_merged = 0;
    s_class_abs = Hashtbl.create 16;
    s_field_abs = Hashtbl.create 16;
    s_single = Hashtbl.create 16;
  }

let problem st = st.s_vars.problem

let reset_state st =
  st.s_vars <- { problem = Problem.create (); table = Var_tbl.create 64 };
  st.s_hinges <- Hashtbl.create 64;
  st.s_whinges <- [||];
  st.s_nwin <- 0;
  st.s_merged <- 0;
  st.s_class_abs <- Hashtbl.create 16;
  st.s_field_abs <- Hashtbl.create 16;
  st.s_single <- Hashtbl.create 16

let register_candidates config vars (w : Observations.merged_window) =
  let reg side =
    Windows.Side.iter
      (fun op _ ->
        List.iter (fun role -> ignore (var_of vars op role)) (feasible_roles config op))
      side
  in
  reg w.rel;
  reg w.acq

(* Encode the window suffix [s_nwin, window_count): candidate variables
   plus (when Mostly Protected is on) one hinge per distinct side. *)
let sync_windows st (config : Config.t) obs =
  let count = Observations.window_count obs in
  if count > Array.length st.s_whinges then begin
    let a = Array.make (max 64 (2 * count)) (None, None) in
    Array.blit st.s_whinges 0 a 0 st.s_nwin;
    st.s_whinges <- a
  end;
  for i = st.s_nwin to count - 1 do
    let w = Observations.window_at obs i in
    register_candidates config st.s_vars w;
    if config.use_protected then begin
      let hinge_for role side tag =
        let key = side_key config st.s_vars side role in
        match Hashtbl.find_opt st.s_hinges key with
        | Some h ->
          st.s_merged <- st.s_merged + 1;
          h
        | None ->
          let sum = side_sum config st.s_vars side role in
          let h =
            Problem.hinge st.s_vars.problem
              (Printf.sprintf "%s(w%d)" tag i)
              (Linexpr.sub (Linexpr.const 1.0) sum)
          in
          Hashtbl.add st.s_hinges key h;
          h
      in
      let rh = hinge_for Release w.rel "rel" in
      let ah = hinge_for Acquire w.acq "acq" in
      st.s_whinges.(i) <- (Some rh, Some ah)
    end
  done;
  st.s_nwin <- count

(* Recompute every hinge's weight from the full window set, skipping
   windows whose pair has raced.  Also counts the active (non-racy)
   windows, the [num_windows] a solve reports. *)
let hinge_weights st (config : Config.t) obs =
  let wt : (Problem.var, float) Hashtbl.t = Hashtbl.create 256 in
  let active = ref 0 in
  for i = 0 to st.s_nwin - 1 do
    let w = Observations.window_at obs i in
    if not (config.use_race_removal && Observations.is_racy_pair obs w.pair)
    then begin
      incr active;
      let bump = function
        | None -> ()
        | Some h ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt wt h) in
          Hashtbl.replace wt h (prev +. float_of_int w.weight)
      in
      let rh, ah = st.s_whinges.(i) in
      bump rh;
      bump ah
    end
  done;
  (wt, !active)

(* Refresh the Mostly-Paired balance terms.  The balance expressions are
   derived from the variable table, so they only change when a round
   introduces a new method or access variable; the signature check reuses
   the existing abs variable otherwise. *)
let sync_paired st =
  let { problem; table } = st.s_vars in
  let refresh cache name terms =
    let terms = List.sort compare terms in
    match Hashtbl.find_opt cache name with
    | Some (old_terms, _) when old_terms = terms -> ()
    | _ ->
      let expr =
        List.fold_left
          (fun acc (v, s) -> Linexpr.add acc (Linexpr.var ~coeff:s v))
          Linexpr.zero terms
      in
      let a = Problem.abs problem name expr in
      Hashtbl.replace cache name (terms, a)
  in
  (* Per-class method balance. *)
  let by_class : (string, (Problem.var * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Var_tbl.iter
    (fun ((op : Opid.t), role) { var = v; _ } ->
      if Opid.is_frame op then begin
        let signed = (v, match role with Acquire -> 1.0 | Release -> -1.0) in
        match Hashtbl.find_opt by_class op.cls with
        | Some r -> r := signed :: !r
        | None -> Hashtbl.add by_class op.cls (ref [ signed ])
      end)
    table;
  Hashtbl.iter
    (fun cls r -> refresh st.s_class_abs ("pair_c(" ^ cls ^ ")") !r)
    by_class;
  (* Per-field read-acquire / write-release balance. *)
  let fields = ref Opid.Set.empty in
  Var_tbl.iter
    (fun ((op : Opid.t), _) _ ->
      if Opid.is_access op then fields := Opid.Set.add (Opid.with_kind op Opid.Read) !fields)
    table;
  Opid.Set.iter
    (fun read_op ->
      let write_op = Opid.with_kind read_op Opid.Write in
      let term op role sign acc =
        match find_var table op role with
        | Some v -> (v, sign) :: acc
        | None -> acc
      in
      let terms = term read_op Acquire 1.0 (term write_op Release (-1.0) []) in
      refresh st.s_field_abs ("pair_f(" ^ Opid.field_key read_op ^ ")") terms)
    !fields

(* Single-Role constraints are added at most once per library method,
   the first round both role variables exist. *)
let sync_single st (config : Config.t) =
  let { problem; table } = st.s_vars in
  let methods = ref Opid.Set.empty in
  Var_tbl.iter
    (fun ((op : Opid.t), _) _ ->
      if Opid.is_frame op && Opid.is_system op then
        methods := Opid.Set.add (Opid.with_kind op Opid.Begin) !methods)
    table;
  Opid.Set.iter
    (fun begin_op ->
      let key = Opid.method_key begin_op in
      if not (Hashtbl.mem st.s_single key) then begin
        let end_op = Opid.with_kind begin_op Opid.End in
        match (find_var table begin_op Acquire, find_var table end_op Release) with
        | Some b, Some e ->
          let sum = Linexpr.add (Linexpr.var b) (Linexpr.var e) in
          if config.single_role_soft then begin
            let h =
              Problem.hinge problem
                ("single_role(" ^ key ^ ")")
                (Linexpr.sub sum (Linexpr.const 1.0))
            in
            Hashtbl.add st.s_single key (Some h)
          end
          else begin
            Problem.add_le problem sum 1.0;
            Hashtbl.add st.s_single key None
          end
        | _ -> ()
      end)
    !methods

(* Rebuild the whole objective from current data.  Weights, occurrence
   averages, and duration percentiles all drift as observations
   accumulate, so the objective is recomputed every round; only the
   constraint matrix is incremental. *)
let build_objective st (config : Config.t) obs wt =
  let { problem; table } = st.s_vars in
  let lambda = config.lambda in
  let add = Problem.add_objective_term problem in
  Problem.set_objective problem Linexpr.zero;
  Hashtbl.iter (fun h w -> if w > 0.0 then add h w) wt;
  add_data_costs config obs table add;
  if config.use_paired then begin
    Hashtbl.iter (fun _ (_, a) -> add a lambda) st.s_class_abs;
    Hashtbl.iter (fun _ (_, a) -> add a lambda) st.s_field_abs
  end;
  if config.use_single_role && config.single_role_soft then
    Hashtbl.iter
      (fun _ h -> match h with Some h -> add h lambda | None -> ())
      st.s_single

(* Bring the live LP up to date with the observations: new windows,
   balance terms, single-role rows, and this round's objective.  Returns
   the active (non-racy) window count. *)
let encode st (config : Config.t) obs =
  (match st.s_obs with
  | Some o when o == obs -> ()
  | _ ->
    (* Fresh observations (new inference, or accumulate off): the cached
       encoding describes different data — start over. *)
    reset_state st;
    st.s_obs <- Some obs);
  Problem.set_capture_duals st.s_vars.problem config.provenance;
  sync_windows st config obs;
  if config.use_paired then sync_paired st;
  if config.use_single_role then sync_single st config;
  let wt, num_windows = hinge_weights st config obs in
  build_objective st config obs wt;
  note_objective st.s_vars.problem;
  num_windows

let solve ?(state = create_state ()) ?(previous = []) (config : Config.t) obs =
  Tspan.with_span ~name:"solve" @@ fun () ->
  let num_windows =
    Tspan.with_span ~name:"encode" (fun () -> encode state config obs)
  in
  let { problem; table } = state.s_vars in
  let pins = ref [] in
  let status, assignment, lp =
    solve_rounded config problem table
      ~pin:(fun v ->
        pins := Problem.add_ge_row ~tag:"pin" problem (Linexpr.var v) 1.0 :: !pins)
  in
  (* Pins are one round's integrality repair, not evidence: relax them to
     the vacuous [x >= 0] so they never constrain later rounds. *)
  List.iter (fun row -> Problem.set_row_rhs problem row 0.0) !pins;
  finish config obs problem table ~num_windows
    ~lp:{ lp with lp_merged_sides = state.s_merged }
    ~previous status assignment
