(* Tests for the LP layer: linear-expression algebra, the two-phase
   simplex, and the hinge/abs reductions used by SherLock's encoding. *)

open Sherlock_lp

let check = Alcotest.check

let feq = Alcotest.float 1e-6

(* --- Linexpr --- *)

let eval_at assign e = Linexpr.eval (fun v -> List.assoc v assign) e

let test_linexpr_basic () =
  let e = Linexpr.(add (var 0) (var ~coeff:2.0 1)) in
  check feq "eval" 8.0 (eval_at [ (0, 2.0); (1, 3.0) ] e);
  check feq "const" 0.0 (Linexpr.constant e);
  check feq "coeff" 2.0 (Linexpr.coeff e 1);
  check feq "absent coeff" 0.0 (Linexpr.coeff e 5)

let test_linexpr_merge () =
  let e = Linexpr.(add (var 0) (var ~coeff:(-1.0) 0)) in
  check Alcotest.int "cancelled terms dropped" 0 (List.length (Linexpr.terms e))

let test_linexpr_scale_neg () =
  let e = Linexpr.(scale 2.0 (sub (var 0) (const 3.0))) in
  check feq "scaled" 4.0 (eval_at [ (0, 5.0) ] e);
  check feq "neg" (-4.0) (eval_at [ (0, 5.0) ] (Linexpr.neg e))

let test_linexpr_sum () =
  let e = Linexpr.sum [ Linexpr.var 0; Linexpr.var 1; Linexpr.const 1.0 ] in
  check feq "sum" 6.0 (eval_at [ (0, 2.0); (1, 3.0) ] e)

let test_linexpr_zero_coeff () =
  check Alcotest.int "zero coeff var is zero" 0
    (List.length (Linexpr.terms (Linexpr.var ~coeff:0.0 3)))

(* The encoding's two shapes with an objective weight. *)
let hinge p ~weight nm e =
  let h = Problem.hinge p nm e in
  Problem.add_objective_term p h weight;
  h

let abs p ~weight nm e =
  let a = Problem.abs p nm e in
  Problem.add_objective_term p a weight;
  a

(* --- Simplex on known programs --- *)

(* A simplex state built from [constrs] and solved once, for tests that
   then edit it. *)
let solved_state ?(ub = [||]) ~num_vars ~objective constrs =
  let s = Simplex.create () in
  for v = 0 to num_vars - 1 do
    ignore
      (Simplex.add_col ~ub:(if v < Array.length ub then ub.(v) else infinity) s)
  done;
  List.iter
    (fun (c : Simplex.constr) -> ignore (Simplex.add_row s c.row c.relation c.rhs))
    constrs;
  Simplex.set_objective s objective;
  (Simplex.reoptimize s, s)

(* A one-shot solve through [solved_state], in the dense oracle's terms:
   the optimum with the values of variables [0 .. num_vars - 1]. *)
let simplex_solve ~num_vars ~objective constrs =
  match solved_state ~num_vars ~objective constrs with
  | `Optimal objective, s ->
    Dense.Optimal
      { objective; solution = Array.init num_vars (Simplex.value s) }
  | `Unbounded, _ -> Dense.Unbounded
  | `Infeasible, _ -> Dense.Infeasible

let solve_simple () =
  (* min -x - y s.t. x + 2y <= 4; 3x + y <= 6 => x=1.6 y=1.2 obj=-2.8 *)
  match
    simplex_solve ~num_vars:2
      ~objective:[ (0, -1.0); (1, -1.0) ]
      [
        { Simplex.row = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 4.0 };
        { Simplex.row = [ (0, 3.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 6.0 };
      ]
  with
  | Dense.Optimal { objective; solution } ->
    check feq "objective" (-2.8) objective;
    check feq "x" 1.6 solution.(0);
    check feq "y" 1.2 solution.(1)
  | _ -> Alcotest.fail "expected optimum"

let solve_equality () =
  (* min x s.t. x + y = 3, y <= 2 => x = 1 *)
  match
    simplex_solve ~num_vars:2 ~objective:[ (0, 1.0) ]
      [
        { Simplex.row = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Eq; rhs = 3.0 };
        { Simplex.row = [ (1, 1.0) ]; relation = Simplex.Le; rhs = 2.0 };
      ]
  with
  | Dense.Optimal { objective; _ } -> check feq "objective" 1.0 objective
  | _ -> Alcotest.fail "expected optimum"

let solve_infeasible () =
  match
    simplex_solve ~num_vars:1 ~objective:[ (0, 1.0) ]
      [
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 5.0 };
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
      ]
  with
  | Dense.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let solve_unbounded () =
  match simplex_solve ~num_vars:1 ~objective:[ (0, -1.0) ] [] with
  | Dense.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let solve_negative_rhs () =
  (* min x s.t. -x <= -2 (i.e. x >= 2) *)
  match
    simplex_solve ~num_vars:1 ~objective:[ (0, 1.0) ]
      [ { Simplex.row = [ (0, -1.0) ]; relation = Simplex.Le; rhs = -2.0 } ]
  with
  | Dense.Optimal { objective; _ } -> check feq "objective" 2.0 objective
  | _ -> Alcotest.fail "expected optimum"

let solve_degenerate () =
  (* Redundant constraints must not cycle (Bland's rule). *)
  match
    simplex_solve ~num_vars:2
      ~objective:[ (0, -1.0) ]
      [
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
        { Simplex.row = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
      ]
  with
  | Dense.Optimal { objective; _ } -> check feq "objective" (-1.0) objective
  | _ -> Alcotest.fail "expected optimum"

(* --- Problem builder --- *)

let test_problem_hinge () =
  (* min h, h >= 1 - a, a <= 0.3 => h = 0.7 *)
  let p = Problem.create () in
  let a = Problem.add_var p ~ub:0.3 "a" in
  let _ = hinge p ~weight:1.0 "h" Linexpr.(sub (const 1.0) (var a)) in
  match Problem.solve p with
  | Problem.Solved obj, v ->
    check feq "objective" 0.7 obj;
    check feq "a at ub" 0.3 (v a)
  | _ -> Alcotest.fail "expected solution"

let test_problem_hinge_slack () =
  (* When the hinge argument is negative the hinge is 0. *)
  let p = Problem.create () in
  let a = Problem.add_var p ~ub:2.0 "a" in
  Problem.add_ge p (Linexpr.var a) 2.0;
  let _ = hinge p ~weight:1.0 "h" Linexpr.(sub (const 1.0) (var a)) in
  match Problem.solve p with
  | Problem.Solved obj, _ -> check feq "objective" 0.0 obj
  | _ -> Alcotest.fail "expected solution"

let test_problem_abs () =
  (* min |x - 2| + 0.1 x over x in [0, 5] => x = 2 *)
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:5.0 "x" in
  let _ = abs p ~weight:1.0 "t" Linexpr.(sub (var x) (const 2.0)) in
  Problem.add_objective p (Linexpr.var ~coeff:0.1 x);
  match Problem.solve p with
  | Problem.Solved obj, v ->
    check feq "x" 2.0 (v x);
    check feq "objective" 0.2 obj
  | _ -> Alcotest.fail "expected solution"

let test_problem_abs_negative_side () =
  (* min |x - 2| with x forced above 3 => value 1. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:10.0 "x" in
  Problem.add_ge p (Linexpr.var x) 3.0;
  let t = abs p ~weight:1.0 "t" Linexpr.(sub (var x) (const 2.0)) in
  match Problem.solve p with
  | Problem.Solved _, v -> check feq "abs value" 1.0 (v t)
  | _ -> Alcotest.fail "expected solution"

let test_problem_names () =
  let p = Problem.create () in
  let x = Problem.add_var p "myvar" in
  check Alcotest.string "name" "myvar" (Problem.name p x);
  check Alcotest.int "count" 1 (Problem.num_vars p)

let test_problem_eq () =
  let p = Problem.create () in
  let x = Problem.add_var p "x" in
  let y = Problem.add_var p ~ub:2.0 "y" in
  Problem.add_eq p Linexpr.(add (var x) (var y)) 3.0;
  Problem.add_objective p (Linexpr.var x);
  match Problem.solve p with
  | Problem.Solved obj, v ->
    check feq "objective" 1.0 obj;
    check feq "y" 2.0 (v y)
  | _ -> Alcotest.fail "expected solution"

let test_problem_constant_folding () =
  (* e <= rhs with a constant inside e. *)
  let p = Problem.create () in
  let x = Problem.add_var p "x" in
  Problem.add_ge p Linexpr.(add (var x) (const 1.0)) 3.0;
  Problem.add_objective p (Linexpr.var x);
  match Problem.solve p with
  | Problem.Solved obj, _ -> check feq "objective" 2.0 obj
  | _ -> Alcotest.fail "expected solution"

(* --- Properties --- *)

(* Random feasible LPs: the returned solution satisfies every constraint. *)
let prop_solution_feasible =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 4 in
      let* nconstrs = int_range 1 5 in
      let* rows =
        list_repeat nconstrs
          (let* coeffs = list_repeat nvars (float_range (-3.0) 3.0) in
           let* rhs = float_range 0.5 10.0 in
           return (coeffs, rhs))
      in
      let* obj = list_repeat nvars (float_range 0.0 2.0) in
      return (nvars, rows, obj))
  in
  QCheck.Test.make ~name:"simplex solution satisfies Le constraints" ~count:200
    (QCheck.make gen)
    (fun (nvars, rows, obj) ->
      (* All constraints are <= with positive rhs, so x = 0 is feasible and
         the minimization of a non-negative objective is bounded. *)
      let constrs =
        List.map
          (fun (coeffs, rhs) ->
            {
              Simplex.row = List.mapi (fun i c -> (i, c)) coeffs;
              relation = Simplex.Le;
              rhs;
            })
          rows
      in
      let objective = List.mapi (fun i c -> (i, c)) obj in
      match simplex_solve ~num_vars:nvars ~objective constrs with
      | Dense.Optimal { solution; _ } ->
        List.for_all
          (fun (coeffs, rhs) ->
            let lhs =
              List.fold_left ( +. ) 0.0
                (List.mapi (fun i c -> c *. solution.(i)) coeffs)
            in
            lhs <= rhs +. 1e-6)
          rows
        && Array.for_all (fun x -> x >= -1e-9) solution
      | Dense.Infeasible | Dense.Unbounded -> false)

(* A minimized non-negative objective over Le constraints with rhs >= 0 is
   zero (x = 0 is optimal). *)
let prop_zero_optimum =
  QCheck.Test.make ~name:"nonneg objective over Le cone solves to 0" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.int_range 1 4) (float_range 0.0 5.0)))
    (fun (nvars, obj) ->
      let objective = List.mapi (fun i c -> (i, c)) (List.filteri (fun i _ -> i < nvars) obj) in
      match simplex_solve ~num_vars:nvars ~objective [] with
      | Dense.Optimal { objective = v; _ } -> abs_float v < 1e-9
      | _ -> false)

(* hinge computes max(0, c - x) at the optimum for fixed x. *)
let prop_hinge_exact =
  QCheck.Test.make ~name:"hinge equals max(0, e) at optimum" ~count:200
    QCheck.(pair (float_range 0.0 2.0) (float_range 0.0 2.0))
    (fun (c, xval) ->
      let p = Problem.create () in
      let x = Problem.add_var p ~ub:5.0 "x" in
      Problem.add_eq p (Linexpr.var x) xval;
      let h = hinge p ~weight:1.0 "h" Linexpr.(sub (const c) (var x)) in
      match Problem.solve p with
      | Problem.Solved _, v -> abs_float (v h -. Float.max 0.0 (c -. xval)) < 1e-6
      | _ -> false)

(* abs computes |e| at the optimum for fixed inputs. *)
let prop_abs_exact =
  QCheck.Test.make ~name:"abs equals |e| at optimum" ~count:200
    QCheck.(pair (float_range 0.0 4.0) (float_range 0.0 4.0))
    (fun (a, b) ->
      let p = Problem.create () in
      let x = Problem.add_var p ~ub:10.0 "x" in
      let y = Problem.add_var p ~ub:10.0 "y" in
      Problem.add_eq p (Linexpr.var x) a;
      Problem.add_eq p (Linexpr.var y) b;
      let t = abs p ~weight:1.0 "t" Linexpr.(sub (var x) (var y)) in
      match Problem.solve p with
      | Problem.Solved _, v -> abs_float (v t -. abs_float (a -. b)) < 1e-6
      | _ -> false)

let prop_linexpr_add_commutes =
  let gen_expr =
    QCheck.Gen.(
      let* terms = list_size (int_range 0 5) (pair (int_range 0 4) (float_range (-5.) 5.)) in
      let* c = float_range (-5.) 5. in
      return (terms, c))
  in
  let to_expr (terms, c) =
    Linexpr.add (Linexpr.const c)
      (Linexpr.sum (List.map (fun (v, k) -> Linexpr.var ~coeff:k v) terms))
  in
  QCheck.Test.make ~name:"linexpr addition commutes" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_expr gen_expr))
    (fun (e1, e2) ->
      let a = Linexpr.add (to_expr e1) (to_expr e2) in
      let b = Linexpr.add (to_expr e2) (to_expr e1) in
      let assign v = float_of_int (v + 1) in
      abs_float (Linexpr.eval assign a -. Linexpr.eval assign b) < 1e-9)

(* --- Objective accumulation --- *)

(* The problem keeps its objective as one coefficient per variable; it
   must match [Linexpr.sum] of the same terms bit for bit. *)
let bits_terms terms = List.map (fun (v, c) -> (v, Int64.bits_of_float c)) terms

let objective_bits p =
  (bits_terms (Problem.objective_terms p), Int64.bits_of_float (Problem.objective_constant p))

let linexpr_bits e =
  (bits_terms (Linexpr.terms e), Int64.bits_of_float (Linexpr.constant e))

let check_objective msg e p =
  check
    Alcotest.(pair (list (pair int int64)) int64)
    msg (linexpr_bits e) (objective_bits p)

let test_objective_set_resets () =
  let p = Problem.create () in
  Problem.add_objective p Linexpr.(add (var ~coeff:2.0 0) (const 5.0));
  Problem.add_objective p (Linexpr.var ~coeff:3.0 7);
  let e = Linexpr.(add (var ~coeff:0.5 3) (const 1.0)) in
  Problem.set_objective p e;
  check_objective "terms and constant replaced" e p

let test_objective_add_after_set () =
  let p = Problem.create () in
  Problem.add_objective p (Linexpr.var ~coeff:9.0 1);
  Problem.set_objective p Linexpr.(add (var 0) (const 2.0));
  Problem.add_objective p Linexpr.(add (var ~coeff:0.25 0) (var 4));
  Problem.add_objective_term p 2 1.5;
  check_objective "accumulated"
    Linexpr.(
      sum [ add (var 0) (const 2.0); add (var ~coeff:0.25 0) (var 4); var ~coeff:1.5 2 ])
    p

let test_objective_zero_dropped () =
  let p = Problem.create () in
  Problem.add_objective_term p 3 0.1;
  Problem.add_objective_term p 5 1.0;
  Problem.add_objective_term p 3 (-0.1);
  check Alcotest.(list int) "cancelled var dropped" [ 5 ]
    (List.map fst (Problem.objective_terms p))

let test_objective_grows () =
  let p = Problem.create () in
  Problem.add_objective_term p 1000 2.0;
  Problem.add_objective_term p 17 1.0;
  check Alcotest.(list (pair int (float 0.0))) "far ids kept"
    [ (17, 1.0); (1000, 2.0) ]
    (Problem.objective_terms p)

let test_objective_ascending () =
  let p = Problem.create () in
  List.iter (fun v -> Problem.add_objective_term p v 1.0) [ 9; 2; 5; 0 ];
  check Alcotest.(list int) "ascending" [ 0; 2; 5; 9 ]
    (List.map fst (Problem.objective_terms p))

(* Random term lists, including exact cancellations, ids past the initial
   capacity, and a reset part-way through. *)
let prop_objective_matches_linexpr =
  let gen_expr =
    QCheck.Gen.(
      let* terms =
        list_size (int_range 0 4)
          (pair
             (oneof [ int_range 0 10; int_range 0 100 ])
             (oneof [ float_range (-3.) 3.; oneofl [ 1.0; -1.0; 0.1; 0.0 ] ]))
      in
      let* c = oneof [ float_range (-2.) 2.; return 0.0 ] in
      return (terms, c))
  in
  let to_expr (terms, c) =
    List.fold_left
      (fun acc (v, k) -> Linexpr.add acc (Linexpr.var ~coeff:k v))
      (Linexpr.const c) terms
  in
  QCheck.Test.make ~name:"array objective matches Linexpr.sum" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 0 12) gen_expr)
           (list_size (int_range 0 12) gen_expr)
           bool))
    (fun (before, after, reset) ->
      let p = Problem.create () in
      List.iter (fun e -> Problem.add_objective p (to_expr e)) before;
      if reset then Problem.set_objective p Linexpr.zero;
      List.iter (fun e -> Problem.add_objective p (to_expr e)) after;
      let exprs = List.map to_expr ((if reset then [] else before) @ after) in
      linexpr_bits (Linexpr.sum exprs) = objective_bits p)

(* --- LU factorization --- *)

(* Dense reference basis: [cols.(k).(row)] is the column at position k. *)
let lu_col cols k f = Array.iteri (fun row v -> if v <> 0.0 then f row v) cols.(k)

let mul_b cols x =
  let m = Array.length cols in
  let r = Array.make m 0.0 in
  Array.iteri
    (fun k col ->
      Array.iteri (fun row v -> r.(row) <- r.(row) +. (v *. x.(k))) col)
    cols;
  r

let mul_bt cols y =
  Array.map
    (fun col ->
      let s = ref 0.0 in
      Array.iteri (fun row v -> s := !s +. (v *. y.(row))) col;
      !s)
    cols

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i v -> e := Float.max !e (abs_float (v -. b.(i)))) a;
  !e

let test_lu_roundtrip_known () =
  (* Zero on the leading diagonal forces a row permutation. *)
  let cols = [| [| 0.0; 2.0; 1.0 |]; [| 1.0; 1.0; 0.0 |]; [| 0.0; 3.0; 4.0 |] |] in
  match Lu.factorize ~m:3 ~col:(lu_col cols) with
  | None -> Alcotest.fail "nonsingular basis must factorize"
  | Some t ->
    check Alcotest.int "size" 3 (Lu.size t);
    let b = [| 1.0; -2.0; 3.0 |] in
    check Alcotest.bool "ftran solves B x = b" true
      (max_err (mul_b cols (Lu.ftran t b)) b < 1e-9);
    let c = [| 0.5; 1.0; -1.5 |] in
    check Alcotest.bool "btran solves B^T y = c" true
      (max_err (mul_bt cols (Lu.btran t c)) c < 1e-9)

let test_lu_eta_update () =
  let cols = [| [| 4.0; 1.0; 0.0 |]; [| 0.0; 3.0; 1.0 |]; [| 2.0; 0.0; 5.0 |] |] in
  match Lu.factorize ~m:3 ~col:(lu_col cols) with
  | None -> Alcotest.fail "factorize"
  | Some t ->
    let a = [| 1.0; 2.0; -1.0 |] in
    let w = Lu.ftran t a in
    check Alcotest.bool "pivot direction usable" true (abs_float w.(1) > 1e-9);
    Lu.update t ~r:1 ~w;
    check Alcotest.int "one eta term" 1 (Lu.eta_count t);
    let cols' = [| cols.(0); a; cols.(2) |] in
    let b = [| -1.0; 0.5; 2.0 |] in
    check Alcotest.bool "ftran tracks the replaced column" true
      (max_err (mul_b cols' (Lu.ftran t b)) b < 1e-9);
    let c = [| 2.0; -1.0; 0.25 |] in
    check Alcotest.bool "btran tracks the replaced column" true
      (max_err (mul_bt cols' (Lu.btran t c)) c < 1e-9)

(* Appending a row whose new basic column has no entry in the older rows
   borders the basis, [[B, 0], [a^T, s]]; the solves track it, through
   eta terms before and after the border and a second border. *)
let test_lu_border () =
  let cols = [| [| 4.0; 1.0; 0.0 |]; [| 0.0; 3.0; 1.0 |]; [| 2.0; 0.0; 5.0 |] |] in
  match Lu.factorize ~m:3 ~col:(lu_col cols) with
  | None -> Alcotest.fail "factorize"
  | Some t ->
    let solves_track what cols =
      let m = Array.length cols in
      let b =
        Array.init m (fun i ->
            float_of_int (i + 1) *. if i mod 2 = 0 then 1.0 else -0.5)
      in
      check Alcotest.int (what ^ ": size") m (Lu.size t);
      check Alcotest.bool (what ^ ": ftran") true
        (max_err (mul_b cols (Lu.ftran t b)) b < 1e-9);
      check Alcotest.bool (what ^ ": btran") true
        (max_err (mul_bt cols (Lu.btran t b)) b < 1e-9)
    in
    let a = [| 1.0; 2.0; -1.0 |] in
    Lu.update t ~r:1 ~w:(Lu.ftran t a);
    let cols = [| cols.(0); a; cols.(2) |] in
    (* new row 3: 1.0 on position 0, -2.0 on position 2, 0.5 on the new column *)
    Lu.append t ~a:[ (0, 1.0); (2, -2.0) ] ~s:0.5;
    let cols =
      Array.append
        (Array.mapi (fun k c -> Array.append c [| [| 1.0; 0.0; -2.0 |].(k) |]) cols)
        [| [| 0.0; 0.0; 0.0; 0.5 |] |]
    in
    check Alcotest.int "a border is one more term" 2 (Lu.eta_count t);
    solves_track "bordered" cols;
    let a = [| 0.0; 1.0; 1.0; 3.0 |] in
    Lu.update t ~r:0 ~w:(Lu.ftran t a);
    let cols = Array.mapi (fun k c -> if k = 0 then a else c) cols in
    solves_track "pivot on the bordered basis" cols;
    Lu.append t ~a:[ (3, -1.0); (0, 2.0) ] ~s:(-2.0);
    let cols =
      Array.append
        (Array.mapi
           (fun k c -> Array.append c [| [| 2.0; 0.0; 0.0; -1.0 |].(k) |])
           cols)
        [| [| 0.0; 0.0; 0.0; 0.0; -2.0 |] |]
    in
    solves_track "second border" cols

let test_lu_singular () =
  let cols = [| [| 1.0; 0.0 |]; [| 2.0; 0.0 |] |] in
  match Lu.factorize ~m:2 ~col:(lu_col cols) with
  | None -> ()
  | Some _ -> Alcotest.fail "rank-deficient basis must not factorize"

let prop_lu_roundtrip =
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 6 in
      let* entries = list_repeat (m * m) (float_range (-2.0) 2.0) in
      let* b = list_repeat m (float_range (-4.0) 4.0) in
      let* r = int_range 0 (m - 1) in
      let* newcol = list_repeat m (float_range (-2.0) 2.0) in
      return (m, entries, b, r, newcol))
  in
  QCheck.Test.make ~name:"lu ftran/btran invert random bases (incl. eta update)"
    ~count:300 (QCheck.make gen)
    (fun (m, entries, b, r, newcol) ->
      let e = Array.of_list entries in
      (* Diagonal dominance keeps the random basis far from singular. *)
      let cols =
        Array.init m (fun k ->
            Array.init m (fun row ->
                e.((k * m) + row) +. if row = k then 8.0 else 0.0))
      in
      let b = Array.of_list b in
      match Lu.factorize ~m ~col:(lu_col cols) with
      | None -> false
      | Some t ->
        let ok =
          max_err (mul_b cols (Lu.ftran t b)) b < 1e-6
          && max_err (mul_bt cols (Lu.btran t b)) b < 1e-6
        in
        let a =
          Array.init m (fun row ->
              List.nth newcol row +. if row = r then 8.0 else 0.0)
        in
        let w = Lu.ftran t a in
        if abs_float w.(r) < 1e-6 then ok
        else begin
          Lu.update t ~r ~w;
          let cols' = Array.mapi (fun k c -> if k = r then a else c) cols in
          ok
          && max_err (mul_b cols' (Lu.ftran t b)) b < 1e-6
          && max_err (mul_bt cols' (Lu.btran t b)) b < 1e-6
        end)

(* --- Engine behavior: refactorization, pivot cap, dual repair --- *)

(* The program as [Problem.row_info] shows it, cap rows as real rows,
   solved by the dense reference oracle. *)
let dense_solve p =
  let constrs =
    List.init (Problem.num_rows p) (fun i ->
        let ri = Problem.row_info p i in
        { Simplex.row = ri.ri_terms; relation = ri.ri_rel; rhs = ri.ri_rhs })
  in
  match
    Dense.solve ~num_vars:(Problem.num_vars p)
      ~objective:(Problem.objective_terms p) constrs
  with
  | Dense.Optimal { objective; solution } ->
    (Problem.Solved (objective +. Problem.objective_constant p), solution)
  | Dense.Infeasible -> (Problem.Infeasible, [||])
  | Dense.Unbounded -> (Problem.Unbounded, [||])

(* min -sum x_i over a 6-cycle of pairwise caps: needs a handful of
   pivots under any pricing order, with optimum -3 (alternate 1, 0). *)
let pivoty_lp () =
  let n = 6 in
  let p = Problem.create () in
  let xs = Array.init n (fun i -> Problem.add_var p (Printf.sprintf "x%d" i)) in
  Array.iteri
    (fun i x ->
      Problem.add_le p Linexpr.(add (var x) (var xs.((i + 1) mod n))) 1.0)
    xs;
  Problem.add_objective p
    (Linexpr.sum
       (Array.to_list (Array.map (fun x -> Linexpr.var ~coeff:(-1.0) x) xs)));
  p

let test_refactor_threshold () =
  Fun.protect
    ~finally:(fun () ->
      Simplex.set_refactor_interval Simplex.default_refactor_interval)
    (fun () ->
      Simplex.set_refactor_interval 1;
      let p = pivoty_lp () in
      match Problem.solve p with
      | Problem.Solved obj, _ ->
        check feq "optimum unchanged by refactorization" (-3.0) obj;
        let info = Problem.last_info p in
        check Alcotest.bool "refactorized at least once" true
          (info.Problem.refactors >= 1);
        check Alcotest.bool "eta file never exceeds the interval" true
          (info.Problem.eta_len <= 1)
      | _ -> Alcotest.fail "expected solution")

(* The pivot cap surfaces as a non-raising [Aborted] status, and lifting
   the cap fully recovers — on the same problem, whose solver state the
   abort invalidated, as on a fresh one. *)
let test_pivot_cap_aborts_and_recovers () =
  Fun.protect
    ~finally:(fun () -> Simplex.set_pivot_limit Simplex.default_pivot_limit)
    (fun () ->
      Simplex.set_pivot_limit 1;
      let p = pivoty_lp () in
      (match Problem.solve p with
      | Problem.Aborted, v -> check feq "aborted assignment is zero" 0.0 (v 0)
      | _ -> Alcotest.fail "expected Aborted under a 1-pivot cap");
      check Alcotest.bool "the cap's pivots are counted" true
        ((Problem.last_info p).Problem.pivots >= 1);
      Simplex.set_pivot_limit Simplex.default_pivot_limit;
      (match Problem.solve p with
      | Problem.Solved obj, _ -> check feq "state recovered" (-3.0) obj
      | _ -> Alcotest.fail "expected recovery after lifting the cap");
      match Problem.solve (pivoty_lp ()) with
      | Problem.Solved obj, _ -> check feq "fresh problem solves" (-3.0) obj
      | _ -> Alcotest.fail "expected a fresh solve")

(* A warm attempt that cannot finish falls back to a cold rebuild, and
   the solve records why: a violated row no column can repair is a
   dual-repair dead end, and a re-optimization past the pivot cap is a
   pivot-cap restart.  Each cause has its own registry counter.  Every
   column may enter the dual simplex, so only a row the program cannot
   satisfy still dead-ends: [x + y <= -1] over nonnegative columns (the
   fresh [y] cannot start basic at -1 either).  The cold rebuild then
   proves the program infeasible. *)
let test_cold_restart_causes () =
  let module Tm = Sherlock_telemetry.Metrics in
  let was_enabled = Tm.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled was_enabled;
      Simplex.set_pivot_limit Simplex.default_pivot_limit)
    (fun () ->
      Tm.set_enabled true;
      let counter cause = Tm.Counter.value (Tm.counter ("lp.cold_restart." ^ cause)) in
      let cause p = (Problem.last_info p).Problem.cold_restart in
      let dual = counter "dual_repair" and cap = counter "pivot_cap" in
      let p = Problem.create () in
      let x = Problem.add_var p ~ub:1.0 "x" in
      Problem.add_objective p (Linexpr.var ~coeff:(-1.0) x);
      ignore (Problem.solve p);
      let y = Problem.add_var p "y" in
      Problem.add_le p Linexpr.(add (var x) (var y)) (-1.0);
      Problem.add_objective p (Linexpr.var y);
      (match Problem.solve p with
      | Problem.Infeasible, _ -> ()
      | s, _ ->
        Alcotest.failf "expected Infeasible after the restart, got %s"
          (Problem.status_name s));
      check Alcotest.bool "dual-repair cause" true
        (cause p = Some Simplex.Dual_repair);
      check Alcotest.int "lp.cold_restart.dual_repair counted" (dual + 1)
        (counter "dual_repair");
      (* Flip the objective of the 6-cycle so that every variable at 1
         should drop to 0 and the other way round. *)
      let q = pivoty_lp () in
      let v = match Problem.solve q with _, v -> v in
      Problem.set_objective q
        (Linexpr.sum
           (List.init 6 (fun i -> Linexpr.var ~coeff:(v i -. 1.0) i)));
      Simplex.set_pivot_limit 1;
      (match Problem.solve q with
      | Problem.Aborted, _ -> ()
      | s, _ -> Alcotest.failf "expected Aborted, got %s" (Problem.status_name s));
      check Alcotest.bool "pivot-cap cause" true (cause q = Some Simplex.Pivot_cap);
      check Alcotest.int "lp.cold_restart.pivot_cap counted" (cap + 1)
        (counter "pivot_cap"))

(* A pivot the ratio test accepts (|w| = 1.5e-9 > 1e-9) leaves a basis
   the factorization rejects: refactorizing [[0.05, 0.01], [1, 0.2 +
   1.5e-9]] pivots on the 1 and leaves a 7.5e-11 residual, under its
   1e-10 singularity bound.  Refactorizing after every pivot makes the
   cold solve hit it, and it must come back as its own status, not as
   the pivot cap; with the default interval the same program solves. *)
let test_numerical_failure_status () =
  let module Tm = Sherlock_telemetry.Metrics in
  let make () =
    let p = Problem.create () in
    let x1 = Problem.add_var p "x1" and x2 = Problem.add_var p "x2" in
    Problem.add_le p Linexpr.(add (var ~coeff:0.05 x1) (var ~coeff:0.01 x2)) 0.01;
    Problem.add_le p
      Linexpr.(add (var x1) (var ~coeff:(0.2 +. 1.5e-9) x2))
      0.2;
    Problem.add_objective p
      Linexpr.(add (var ~coeff:(-1.0) x1) (var ~coeff:(-0.5) x2));
    p
  in
  let was_enabled = Tm.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled was_enabled;
      Simplex.set_refactor_interval Simplex.default_refactor_interval)
    (fun () ->
      Tm.set_enabled true;
      let counter name = Tm.Counter.value (Tm.counter name) in
      let numerical = counter "lp.numerical" and aborted = counter "lp.aborted" in
      Simplex.set_refactor_interval 1;
      let p = make () in
      (match Problem.solve p with
      | Problem.Numerical, v -> check feq "assignment is zero" 0.0 (v 0)
      | s, _ ->
        Alcotest.failf "expected Numerical, got %s" (Problem.status_name s));
      check Alcotest.bool "the failed attempt's pivots are counted" true
        ((Problem.last_info p).Problem.pivots >= 1);
      check Alcotest.int "lp.numerical counted" (numerical + 1)
        (counter "lp.numerical");
      check Alcotest.int "not counted as a pivot-cap hit" aborted
        (counter "lp.aborted");
      Simplex.set_refactor_interval Simplex.default_refactor_interval;
      match Problem.solve (make ()) with
      | Problem.Solved _, _ -> ()
      | s, _ ->
        Alcotest.failf "expected a solve at the default interval, got %s"
          (Problem.status_name s))

(* Appending a cut that chops off the optimum exercises the dual-simplex
   repair: the reoptimize must stay warm (no cold restart) and leave the
   basis dual-feasible under the certified cost vector.  The cut as an
   equation joins the basis with its fixed slack, which the dual simplex
   drives to 0 like any other bound. *)
let test_dual_repair_after_cut () =
  List.iter
    (fun (cut, relation) ->
      let outcome, s =
        solved_state ~num_vars:2
          ~objective:[ (0, -1.0); (1, -1.0) ]
          [
            { Simplex.row = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 4.0 };
            { Simplex.row = [ (0, 3.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 6.0 };
          ]
      in
      (match outcome with
      | `Optimal objective -> check feq "initial optimum" (-2.8) objective
      | _ -> Alcotest.fail "expected optimum");
      ignore (Simplex.add_row s [ (0, 1.0); (1, 1.0) ] relation 2.0);
      (match Simplex.reoptimize s with
      | `Optimal obj -> check feq (cut ^ ": repaired optimum") (-2.0) obj
      | _ -> Alcotest.failf "%s: expected optimum after the cut" cut);
      let st = Simplex.last_stats s in
      check Alcotest.bool (cut ^ ": solved warm") true st.Simplex.warm;
      check Alcotest.bool (cut ^ ": no cold restart") true
        (st.Simplex.cold_restart = None);
      check Alcotest.bool (cut ^ ": dual feasible under the certified costs") true
        (Simplex.dual_feasible s))
    [ ("x + y <= 2", Simplex.Le); ("x + y = 2", Simplex.Eq) ]

let test_dual_repair_with_bounds () =
  let outcome, s =
    solved_state
      ~ub:[| 1.0; infinity |]
      ~num_vars:2
      ~objective:[ (0, -2.0); (1, -1.0) ]
      [ { Simplex.row = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 1.5 } ]
  in
  (match outcome with
  | `Optimal objective ->
    check feq "initial optimum" (-2.5) objective;
    check feq "x at its bound" 1.0 (Simplex.value s 0)
  | _ -> Alcotest.fail "expected optimum");
  ignore (Simplex.add_row s [ (0, 1.0); (1, 1.0) ] Simplex.Le 1.2);
  (match Simplex.reoptimize s with
  | `Optimal obj -> check feq "repaired optimum" (-2.2) obj
  | _ -> Alcotest.fail "expected optimum after tightening");
  check Alcotest.bool "dual feasible with a column at its bound" true
    (Simplex.dual_feasible s);
  check feq "x still at its bound" 1.0 (Simplex.value s 0);
  check Alcotest.bool "x flagged at upper" true (Simplex.is_at_upper s 0)

(* A capped variable and no other rows: the simplex solves it with a
   bound flip on an empty basis; the dense oracle sees the cap as an
   explicit row. *)
let test_bound_only_program () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:2.0 "x" in
  Problem.add_objective p (Linexpr.var ~coeff:(-1.0) x);
  (match dense_solve p with
  | Problem.Solved obj, v ->
    check feq "objective (dense)" (-2.0) obj;
    check feq "x at cap (dense)" 2.0 v.(x)
  | _ -> Alcotest.fail "expected solution (dense)");
  match Problem.solve p with
  | Problem.Solved obj, v ->
    check feq "objective" (-2.0) obj;
    check feq "x at cap" 2.0 (v x)
  | _ -> Alcotest.fail "expected solution"

let test_bound_rows_saved () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  let y = Problem.add_var p "y" in
  Problem.add_le p Linexpr.(add (var x) (var y)) 1.5;
  Problem.add_objective p
    Linexpr.(add (var ~coeff:(-2.0) x) (var ~coeff:(-1.0) y));
  let solve () =
    match Problem.solve p with
    | Problem.Solved _, _ -> ()
    | _ -> Alcotest.fail "expected solution"
  in
  solve ();
  check Alcotest.int "cap kept out of the sparse matrix" 1
    (Problem.last_info p).Problem.bound_rows_saved;
  check Alcotest.int "but the cap is still a visible row" 2 (Problem.num_rows p);
  (* Caps added between solves count once each, across solves. *)
  let z = Problem.add_var p ~ub:2.0 "z" and w = Problem.add_var p ~ub:0.5 "w" in
  Problem.add_le p Linexpr.(add (var z) (var w)) 2.0;
  solve ();
  check Alcotest.int "caps counted across solves" 3
    (Problem.last_info p).Problem.bound_rows_saved

(* --- Crash start --- *)

let solved_objective what = function
  | Problem.Solved obj, _ -> obj
  | s, _ ->
    Alcotest.failf "%s: expected a solution, got %s" what (Problem.status_name s)

(* A cold solve equals the dense oracle, its dual simplex made pivots
   from the slack basis exactly when [dual], and each variable of
   [at_cap] ends at its cap 1. *)
let check_cold_start ?(at_cap = []) ~dual what p =
  let dense = solved_objective (what ^ " (dense)") (dense_solve p) in
  let result = Problem.solve p in
  let obj = solved_objective what result in
  check (Alcotest.float 1e-6) (what ^ ": objective") dense obj;
  let info = Problem.last_info p in
  check Alcotest.bool (what ^ ": solved cold") false info.Problem.warm;
  check Alcotest.bool (what ^ ": dual start") dual (info.Problem.dual_pivots > 0);
  List.iter
    (fun v -> check feq (what ^ ": " ^ Problem.name p v ^ " at cap") 1.0 (snd result v))
    at_cap

(* The encoder's shapes: hinges [max(0, 1 - sum)] over window sides that
   share capped probability variables, an abs pair, and a soft
   Single-Role hinge [max(0, p_b + p_e - 1)].  No cost is negative, so
   the dual simplex from the slack basis repairs the hinge rows (rhs
   -1) under the costs themselves. *)
let encoder_shapes_lp () =
  let p = Problem.create () in
  let ps =
    Array.init 5 (fun i -> Problem.add_var p ~ub:1.0 (Printf.sprintf "p%d" i))
  in
  Array.iteri
    (fun i v -> Problem.add_objective_term p v (0.1 +. (0.05 *. float_of_int i)))
    ps;
  let side vs =
    Linexpr.sub (Linexpr.const 1.0)
      (Linexpr.sum (List.map (fun i -> Linexpr.var ps.(i)) vs))
  in
  List.iteri
    (fun i (weight, vs) ->
      ignore (hinge p ~weight (Printf.sprintf "h%d" i) (side vs)))
    [ (3.0, [ 0; 1 ]); (2.0, [ 1; 2 ]); (1.0, [ 3 ]); (4.0, [ 2; 4 ]) ];
  ignore (abs p ~weight:0.2 "pair" Linexpr.(sub (var ps.(0)) (var ps.(3))));
  ignore
    (hinge p ~weight:0.2 "single_role"
       Linexpr.(sub (add (var ps.(1)) (var ps.(4))) (const 1.0)));
  p

let test_crash_encoder_shapes () =
  check_cold_start ~dual:true "encoder shapes" (encoder_shapes_lp ());
  (* The dual pivots count against the one pivot cap. *)
  Fun.protect
    ~finally:(fun () -> Simplex.set_pivot_limit Simplex.default_pivot_limit)
    (fun () ->
      Simplex.set_pivot_limit 2;
      let p = encoder_shapes_lp () in
      (match Problem.solve p with
      | Problem.Aborted, _ -> ()
      | s, _ -> Alcotest.failf "expected Aborted, got %s" (Problem.status_name s));
      check Alcotest.int "stopped at the cap" 2 (Problem.last_info p).Problem.pivots)

(* Rows the slack basis leaves infeasible, whose singleton columns
   would start outside their bounds.  The dual simplex repairs them from
   the slack basis, with or without a capped column [z] of cost -1 (in
   no row): the dual runs with z's cost raised to 0, and the primal then
   moves z to its cap by a bound flip. *)
let test_crash_falls_back () =
  (* [h - p <= -0.5]: h would start at -0.5; p sits in a second row. *)
  let negative_start () =
    let p = Problem.create () in
    let pv = Problem.add_var p ~ub:1.0 "p" and h = Problem.add_var p "h" in
    Problem.add_le p Linexpr.(sub (var h) (var pv)) (-0.5);
    Problem.add_le p (Linexpr.var pv) 0.8;
    Problem.add_objective p Linexpr.(add (var pv) (var h));
    p
  in
  let p = negative_start () in
  let z = Problem.add_var p ~ub:1.0 "z" in
  Problem.add_objective_term p z (-1.0);
  check_cold_start ~at_cap:[ z ] ~dual:true "negative start" p;
  check_cold_start ~dual:true "slack start" (negative_start ());
  (* [x + 2y >= 2]: x would start at 2 over its cap 1, y at 1 over 0.9. *)
  let q = Problem.create () in
  let x = Problem.add_var q ~ub:1.0 "x" and y = Problem.add_var q ~ub:0.9 "y" in
  Problem.add_ge q Linexpr.(add (var x) (var ~coeff:2.0 y)) 2.0;
  Problem.add_objective q Linexpr.(add (var ~coeff:3.0 x) (var y));
  let z = Problem.add_var q ~ub:1.0 "z" in
  Problem.add_objective_term q z (-1.0);
  check_cold_start ~at_cap:[ z ] ~dual:true "start over the cap" q

(* A window whose ops are all new appends [-p2 - h1 <= -1] over two
   fresh columns.  Its hinge column joins the basis instead of the
   slack: the dual certificate still holds, the basis is primal
   feasible, and the re-solve stays warm.  The hinge column has no
   entry in the older rows, so an append borders the factorization: a
   second such window, re-solved straight away, needs no
   refactorization. *)
let test_crash_warm_append () =
  let outcome, s =
    solved_state ~ub:[| 1.0; 1.0 |] ~num_vars:3
      ~objective:[ (0, 0.3); (1, 0.2); (2, 2.0) ]
      [
        {
          Simplex.row = [ (0, -1.0); (1, -1.0); (2, -1.0) ];
          relation = Simplex.Le;
          rhs = -1.0;
        };
      ]
  in
  (match outcome with
  | `Optimal obj -> check feq "initial optimum" 0.2 obj
  | _ -> Alcotest.fail "expected optimum");
  let p2 = Simplex.add_col ~ub:1.0 s in
  let h1 = Simplex.add_col s in
  ignore (Simplex.add_row s [ (p2, -1.0); (h1, -1.0) ] Simplex.Le (-1.0));
  check Alcotest.bool "dual feasible after the append" true (Simplex.dual_feasible s);
  Simplex.set_objective s [ (0, 0.3); (1, 0.2); (2, 2.0); (p2, 0.4); (h1, 1.5) ];
  (match Simplex.reoptimize s with
  | `Optimal obj -> check feq "grown optimum" 0.6 obj
  | _ -> Alcotest.fail "expected optimum after the append");
  let st = Simplex.last_stats s in
  check Alcotest.bool "solved warm" true st.Simplex.warm;
  check Alcotest.bool "no cold restart" true (st.Simplex.cold_restart = None);
  let p3 = Simplex.add_col ~ub:1.0 s in
  let h2 = Simplex.add_col s in
  ignore (Simplex.add_row s [ (p3, -1.0); (h2, -1.0) ] Simplex.Le (-1.0));
  Simplex.set_objective s
    [ (0, 0.3); (1, 0.2); (2, 2.0); (p2, 0.4); (h1, 1.5); (p3, 0.4); (h2, 1.5) ];
  (match Simplex.reoptimize s with
  | `Optimal obj -> check feq "second grown optimum" 1.0 obj
  | _ -> Alcotest.fail "expected optimum after the second append");
  check Alcotest.int "the factor survives the append" 0
    (Simplex.last_stats s).Simplex.refactors

(* A 500-event synthetic log at near 20 000 (the synth LP probe's
   shape) solves cold; after a second log, the
   state's re-solve of the merged observations stays warm — the columns
   of the new windows may enter its dual simplex — and gives the
   verdicts of a cold solve of them. *)
let probe_config = { Sherlock_core.Config.default with near = 20_000 }

let add_synth_log obs ~seed ~events =
  let config = probe_config in
  Sherlock_core.Observations.add_log obs ~near:config.near
    ~cap:config.window_cap ~refine:config.use_refinement
    (Sherlock_trace.Synth.log ~seed ~addrs:2048 ~threads:16 ~events ())

let test_crash_synth_probe () =
  let open Sherlock_core in
  let config = probe_config in
  let obs = Observations.create () in
  let add seed = add_synth_log obs ~seed ~events:500 in
  let names vs =
    List.map
      (fun (v : Verdict.t) ->
        Sherlock_trace.Opid.to_string v.op ^ "^" ^ Verdict.role_name v.role)
      vs
  in
  let state = Encoder.create_state () in
  add 42;
  let _, first = Encoder.solve ~state config obs in
  check Alcotest.bool "first solve not degraded" false first.Encoder.degraded;
  check Alcotest.bool "first solve cold" false first.lp.lp_base_warm;
  add 43;
  let warm, second = Encoder.solve ~state config obs in
  check Alcotest.bool "second solve not degraded" false second.Encoder.degraded;
  check Alcotest.bool "second solve warm" true second.lp.lp_base_warm;
  check Alcotest.int "second solve never restarts cold" 0
    second.lp.lp_cold_restarts;
  let cold, _ = Encoder.solve config obs in
  check Alcotest.bool "some verdicts" true (warm <> []);
  check
    Alcotest.(list string)
    "state's verdicts are the cold ones" (names cold) (names warm)

(* --- The synth LP probe --- *)

(* A cold [Encoder.solve] of [events] events of the seed-42 synthetic
   log (2048 addresses, 16 threads, near 20 000): its verdicts, its
   stats and the state's LP. *)
let synth_probe events =
  let open Sherlock_core in
  let obs = Observations.create () in
  add_synth_log obs ~seed:42 ~events;
  let state = Encoder.create_state () in
  let verdicts, stats = Encoder.solve ~state probe_config obs in
  (verdicts, stats, Encoder.problem state)

(* The 500-event probe needs no rounding pin, so the call's objective is
   its LP's cold optimum, which the dense oracle confirms. *)
let test_synth_probe_dense () =
  let _, stats, p = synth_probe 500 in
  check Alcotest.int "no rounding pin" 1 stats.lp.lp_solves;
  let dense = solved_objective "dense" (dense_solve p) in
  check (Alcotest.float 1e-6) "cold objective" dense stats.objective

(* Pivot counts are deterministic: [max_pivots] bounds the cold solve of
   the probe, rounding re-solves included. *)
let test_synth_probe_pivots events ~max_pivots () =
  let verdicts, stats, _ = synth_probe events in
  check Alcotest.bool "not degraded" false stats.degraded;
  check Alcotest.bool "some verdicts" true (verdicts <> []);
  if stats.lp.lp_pivots > max_pivots then
    Alcotest.failf "%d events: %d pivots, over %d" events stats.lp.lp_pivots
      max_pivots

(* --- Engine equivalence --- *)

let gen_lp =
  QCheck.Gen.(
    let* nvars = int_range 1 5 in
    let* nconstrs = int_range 1 6 in
    (* Finite caps exercise the bounded-variable path: column bounds in
       the sparse engines, explicit rows in the dense oracle. *)
    let* ubs =
      list_repeat nvars
        (frequency [ (2, return infinity); (1, float_range 0.2 2.5) ])
    in
    let* rows =
      list_repeat nconstrs
        (let* coeffs = list_repeat nvars (float_range (-3.0) 3.0) in
         let* rel = oneofl [ `Le; `Ge; `Eq ] in
         (* The occasional zero rhs lands on degenerate bases — the
            classic cycling trap for the ratio test. *)
         let* rhs = frequency [ (5, float_range (-2.0) 6.0); (1, return 0.0) ] in
         return (coeffs, rel, rhs))
    in
    (* Costs of either sign: a negative one starts the cold dual simplex
       under the cost raised to 0 and leaves the rest to the primal, and
       can make the program Unbounded; Ge/Eq rows can also make it
       Infeasible by cutting off the whole orthant. *)
    let* obj = list_repeat nvars (float_range (-2.0) 2.0) in
    return (nvars, ubs, rows, obj))

(* [~solve_after:k] solves once after the first [k] rows, so the final
   solve is a warm one on a grown program. *)
let build_problem ?(solve_after = -1) (nvars, ubs, rows, obj) =
  let p = Problem.create () in
  let ubs = Array.of_list ubs in
  let xs =
    Array.init nvars (fun i ->
        let name = Printf.sprintf "x%d" i in
        if Float.is_finite ubs.(i) then Problem.add_var p ~ub:ubs.(i) name
        else Problem.add_var p name)
  in
  Problem.add_objective p
    (Linexpr.sum (List.mapi (fun i c -> Linexpr.var ~coeff:c xs.(i)) obj));
  List.iteri
    (fun i (coeffs, rel, rhs) ->
      if i = solve_after then ignore (Problem.solve p);
      let e =
        Linexpr.sum (List.mapi (fun i c -> Linexpr.var ~coeff:c xs.(i)) coeffs)
      in
      match rel with
      | `Le -> Problem.add_le p e rhs
      | `Ge -> Problem.add_ge p e rhs
      | `Eq -> Problem.add_eq p e rhs)
    rows;
  p

(* Same outcome, with objectives within 1e-6 of each other — or, under
   [~close], within whatever that predicate accepts. *)
let same_status ?(close = fun x y -> abs_float (x -. y) < 1e-6) a b =
  match (a, b) with
  | Problem.Solved x, Problem.Solved y -> close x y
  | Problem.Infeasible, Problem.Infeasible -> true
  | Problem.Unbounded, Problem.Unbounded -> true
  | _ -> false

(* The dense oracle, a cold solve, and a warm solve of the same program
   grown from its first half agree on outcome and objective. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"dense, sparse, and incremental engines agree"
    ~count:300 (QCheck.make gen_lp) (fun lp ->
      let _, _, rows, _ = lp in
      let dense = fst (dense_solve (build_problem lp)) in
      let cold = fst (Problem.solve (build_problem lp)) in
      let warm =
        Problem.solve (build_problem ~solve_after:(List.length rows / 2) lp)
      in
      same_status dense cold && same_status dense (fst warm))

(* Programs of the encoder's shapes: probability variables capped at 1
   with small positive costs, weighted hinges [max(0, 1 - sum)] over
   window sides, weighted [|p_a - p_b|] balance terms, Single-Role rows
   [p_a + p_b <= 1], and a rounding pin [p >= 1] that is added and then
   relaxed to [p >= 0].  After each step the solve, warm from the
   previous one, agrees with the dense oracle to 1e-9 relative to the
   objective. *)
let gen_encoder_lp =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let var = int_range 0 (n - 1) in
    let* costs = list_repeat n (float_range 0.01 0.5) in
    let* hinges =
      list_size (int_range 1 6)
        (pair (float_range 0.5 5.0) (list_size (int_range 1 3) var))
    in
    let* balances = list_size (int_range 0 3) (pair var var) in
    let* single = list_size (int_range 0 2) (pair var var) in
    let* pin = var in
    return (n, costs, hinges, balances, single, pin))

let prop_encoder_shapes_agree =
  QCheck.Test.make ~name:"dense and solve agree on encoder shapes to 1e-9"
    ~count:300 (QCheck.make gen_encoder_lp)
    (fun (n, costs, hinges, balances, single, pin) ->
      let p = Problem.create () in
      let ps =
        Array.init n (fun i -> Problem.add_var p ~ub:1.0 (Printf.sprintf "p%d" i))
      in
      List.iteri (fun i c -> Problem.add_objective_term p ps.(i) c) costs;
      List.iteri
        (fun i (weight, side) ->
          let side = Linexpr.sum (List.map (fun v -> Linexpr.var ps.(v)) side) in
          ignore
            (hinge p ~weight (Printf.sprintf "h%d" i)
               (Linexpr.sub (Linexpr.const 1.0) side)))
        hinges;
      List.iteri
        (fun i (a, b) ->
          ignore
            (abs p ~weight:0.2 (Printf.sprintf "a%d" i)
               Linexpr.(sub (var ps.(a)) (var ps.(b)))))
        balances;
      List.iter
        (fun (a, b) ->
          if a <> b then
            Problem.add_le p Linexpr.(add (var ps.(a)) (var ps.(b))) 1.0)
        single;
      let agree () =
        same_status
          ~close:(fun x y -> abs_float (x -. y) <= 1e-9 *. (1.0 +. abs_float x))
          (fst (dense_solve p)) (fst (Problem.solve p))
      in
      let base = agree () in
      let row = Problem.add_ge_row ~tag:"pin" p (Linexpr.var ps.(pin)) 1.0 in
      let pinned = agree () in
      Problem.set_row_rhs p row 0.0;
      base && pinned && agree ())

(* Warm reoptimization after growing the program (new row, extra
   objective term) lands on the same optimum as a cold solve of the
   final program. *)
let prop_warm_matches_oneshot =
  let gen =
    QCheck.Gen.(
      let* lp = gen_lp in
      let* extra_coeffs = list_repeat 5 (float_range (-2.0) 2.0) in
      let* extra_rhs = float_range 0.0 4.0 in
      return (lp, extra_coeffs, extra_rhs))
  in
  QCheck.Test.make ~name:"warm reoptimize matches one-shot solve" ~count:300
    (QCheck.make gen)
    (fun (lp, extra_coeffs, extra_rhs) ->
      let nvars, _, _, _ = lp in
      let extra_expr () =
        Linexpr.sum
          (List.filteri (fun i _ -> i < nvars) extra_coeffs
          |> List.mapi (fun i c -> Linexpr.var ~coeff:c i))
      in
      let grow p =
        Problem.add_le p (extra_expr ()) extra_rhs;
        Problem.add_objective p (Linexpr.var ~coeff:0.5 0)
      in
      let p = build_problem lp in
      ignore (Problem.solve p);
      grow p;
      let warm = fst (Problem.solve p) in
      let q = build_problem lp in
      grow q;
      same_status warm (fst (Problem.solve q)))

let qcheck = List.map QCheck_alcotest.to_alcotest

(* --- Dual values / reduced costs (provenance capture) --- *)

(* minimize -2x - y  s.t.  x <= 1 (ub row), x + y <= 1.5.  Optimum at
   x = 1, y = 0.5: both rows binding.  With y basic the shared row's dual
   is -1, and the ub cap's dual is -2 - (-1) = -1 — so the provenance
   margin (its negation) is 1. *)
let duals_problem () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  let y = Problem.add_var p "y" in
  Problem.add_le ~tag:"cap" p Linexpr.(add (var x) (var y)) 1.5;
  Problem.add_objective p Linexpr.(add (var ~coeff:(-2.0) x) (var ~coeff:(-1.0) y));
  (p, x, y)

(* The same program reached by a warm solve: first only x's cost, then
   the shared row and y's cost. *)
let grown_duals_problem () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  let y = Problem.add_var p "y" in
  Problem.add_objective p (Linexpr.var ~coeff:(-2.0) x);
  ignore (Problem.solve p);
  Problem.add_le ~tag:"cap" p Linexpr.(add (var x) (var y)) 1.5;
  Problem.add_objective p (Linexpr.var ~coeff:(-1.0) y);
  (p, x, y)

let check_ub_dual p x =
  match Problem.last_duals p with
  | None -> Alcotest.fail "expected captured duals"
  | Some d ->
    let ub =
      match Problem.ub_row p x with
      | Some r -> r
      | None -> Alcotest.fail "x has an ub row"
    in
    check feq "ub dual (margin = 1)" (-1.0) d.Problem.d_rows.(ub);
    check Alcotest.int "one dual per row" (Problem.num_rows p)
      (Array.length d.Problem.d_rows);
    check Alcotest.int "one reduced cost per var" (Problem.num_vars p)
      (Array.length d.Problem.d_vars)

let test_duals_oneshot () =
  let p, x, _ = duals_problem () in
  Problem.set_capture_duals p true;
  (match Problem.solve p with
  | Problem.Solved obj, v ->
    check feq "objective" (-2.5) obj;
    check feq "x" 1.0 (v x)
  | _ -> Alcotest.fail "expected solution");
  check_ub_dual p x

let test_duals_incremental () =
  let p, x, _ = grown_duals_problem () in
  Problem.set_capture_duals p true;
  (match Problem.solve p with
  | Problem.Solved obj, _ -> check feq "objective" (-2.5) obj
  | _ -> Alcotest.fail "expected solution");
  check Alcotest.bool "solved warm" true (Problem.last_info p).Problem.warm;
  check_ub_dual p x

let test_duals_reduced_cost () =
  (* minimize 2x + y  s.t.  x + y >= 1: the optimum takes y = 1 and
     leaves x nonbasic at 0 with reduced cost 2 - 1 = 1 (both columns
     hit only the shared row, so the value is convention-independent). *)
  let p = Problem.create () in
  let x = Problem.add_var p "x" in
  let y = Problem.add_var p "y" in
  Problem.add_ge p Linexpr.(add (var x) (var y)) 1.0;
  Problem.add_objective p Linexpr.(add (var ~coeff:2.0 x) (var y));
  Problem.set_capture_duals p true;
  (match Problem.solve p with
  | Problem.Solved obj, v ->
    check feq "objective" 1.0 obj;
    check feq "x stays 0" 0.0 (v x);
    check feq "y" 1.0 (v y)
  | _ -> Alcotest.fail "expected solution");
  match Problem.last_duals p with
  | None -> Alcotest.fail "expected captured duals"
  | Some d ->
    check feq "reduced cost of x" 1.0 d.Problem.d_vars.(x);
    check feq "reduced cost of basic y" 0.0 d.Problem.d_vars.(y)

let test_duals_capture_off () =
  let p, _, _ = duals_problem () in
  (match Problem.solve p with
  | Problem.Solved _, _ -> ()
  | _ -> Alcotest.fail "expected solution");
  check Alcotest.bool "no duals when capture off" true
    (Problem.last_duals p = None)

let test_duals_none_when_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  Problem.add_ge p (Linexpr.var x) 2.0;
  Problem.add_objective p (Linexpr.var x);
  Problem.set_capture_duals p true;
  (match Problem.solve p with
  | Problem.Infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible");
  check Alcotest.bool "no duals without an optimum" true
    (Problem.last_duals p = None)

let test_duals_incremental_matches_oneshot () =
  let duals p =
    Problem.set_capture_duals p true;
    (match Problem.solve p with
    | Problem.Solved _, _ -> ()
    | _ -> Alcotest.fail "expected solution");
    match Problem.last_duals p with
    | Some d -> d
    | None -> Alcotest.fail "expected captured duals"
  in
  let p1, _, _ = duals_problem () in
  let p2, _, _ = grown_duals_problem () in
  let a = duals p1 in
  let b = duals p2 in
  Array.iteri
    (fun i v -> check feq (Printf.sprintf "row dual %d" i) v b.Problem.d_rows.(i))
    a.Problem.d_rows;
  Array.iteri
    (fun i v -> check feq (Printf.sprintf "reduced cost %d" i) v b.Problem.d_vars.(i))
    a.Problem.d_vars

let () =
  Alcotest.run "lp"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basic" `Quick test_linexpr_basic;
          Alcotest.test_case "merge cancels" `Quick test_linexpr_merge;
          Alcotest.test_case "scale/neg" `Quick test_linexpr_scale_neg;
          Alcotest.test_case "sum" `Quick test_linexpr_sum;
          Alcotest.test_case "zero coeff" `Quick test_linexpr_zero_coeff;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "simple optimum" `Quick solve_simple;
          Alcotest.test_case "equality" `Quick solve_equality;
          Alcotest.test_case "infeasible" `Quick solve_infeasible;
          Alcotest.test_case "unbounded" `Quick solve_unbounded;
          Alcotest.test_case "negative rhs normalization" `Quick solve_negative_rhs;
          Alcotest.test_case "degenerate no-cycle" `Quick solve_degenerate;
        ] );
      ( "problem",
        [
          Alcotest.test_case "hinge active" `Quick test_problem_hinge;
          Alcotest.test_case "hinge slack" `Quick test_problem_hinge_slack;
          Alcotest.test_case "abs" `Quick test_problem_abs;
          Alcotest.test_case "abs negative side" `Quick test_problem_abs_negative_side;
          Alcotest.test_case "names" `Quick test_problem_names;
          Alcotest.test_case "equality" `Quick test_problem_eq;
          Alcotest.test_case "constant folding" `Quick test_problem_constant_folding;
          Alcotest.test_case "objective set resets" `Quick test_objective_set_resets;
          Alcotest.test_case "objective add after set" `Quick
            test_objective_add_after_set;
          Alcotest.test_case "objective zero dropped" `Quick
            test_objective_zero_dropped;
          Alcotest.test_case "objective grows" `Quick test_objective_grows;
          Alcotest.test_case "objective ascending" `Quick test_objective_ascending;
        ] );
      ( "lu",
        Alcotest.test_case "ftran/btran round trip" `Quick test_lu_roundtrip_known
        :: Alcotest.test_case "eta update" `Quick test_lu_eta_update
        :: Alcotest.test_case "singular basis" `Quick test_lu_singular
        :: Alcotest.test_case "border append" `Quick test_lu_border
        :: qcheck [ prop_lu_roundtrip ] );
      ( "engine",
        [
          Alcotest.test_case "refactorization threshold" `Quick
            test_refactor_threshold;
          Alcotest.test_case "pivot cap aborts and recovers" `Quick
            test_pivot_cap_aborts_and_recovers;
          Alcotest.test_case "numerical failure has its own status" `Quick
            test_numerical_failure_status;
          Alcotest.test_case "cold restarts counted by cause" `Quick
            test_cold_restart_causes;
          Alcotest.test_case "dual repair after a cut" `Quick
            test_dual_repair_after_cut;
          Alcotest.test_case "dual repair with bounds" `Quick
            test_dual_repair_with_bounds;
          Alcotest.test_case "bound-only program" `Quick test_bound_only_program;
          Alcotest.test_case "bound rows saved" `Quick test_bound_rows_saved;
        ] );
      ( "crash",
        [
          Alcotest.test_case "encoder shapes need no artificial" `Quick
            test_crash_encoder_shapes;
          Alcotest.test_case "out-of-bounds start falls back" `Quick
            test_crash_falls_back;
          Alcotest.test_case "warm append keeps the certificate" `Quick
            test_crash_warm_append;
          Alcotest.test_case "synth probe re-solve equals cold" `Quick
            test_crash_synth_probe;
        ] );
      ( "probe",
        [
          Alcotest.test_case "500 events: cold objective equals dense" `Slow
            test_synth_probe_dense;
          (* the deleted one-shot path's count, with presolve *)
          Alcotest.test_case "1k events within 2,724 pivots" `Quick
            (test_synth_probe_pivots 1000 ~max_pivots:2724);
          Alcotest.test_case "2k events solve within 6,000 pivots" `Slow
            (test_synth_probe_pivots 2000 ~max_pivots:6000);
        ] );
      ( "duals",
        [
          Alcotest.test_case "one-shot ub margin" `Quick test_duals_oneshot;
          Alcotest.test_case "incremental ub margin" `Quick test_duals_incremental;
          Alcotest.test_case "reduced cost" `Quick test_duals_reduced_cost;
          Alcotest.test_case "capture off" `Quick test_duals_capture_off;
          Alcotest.test_case "none when infeasible" `Quick
            test_duals_none_when_infeasible;
          Alcotest.test_case "incremental matches one-shot" `Quick
            test_duals_incremental_matches_oneshot;
        ] );
      ( "properties",
        qcheck
          [
            prop_solution_feasible; prop_zero_optimum; prop_hinge_exact;
            prop_abs_exact; prop_linexpr_add_commutes; prop_engines_agree;
            prop_encoder_shapes_agree; prop_warm_matches_oneshot;
            prop_objective_matches_linexpr;
          ] );
    ]
