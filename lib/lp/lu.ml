(* LU factorization of the simplex basis, plus the product-form eta
   file.  See the .mli for the contract; the notes here are about the
   representation.

   The factorization is stored in elimination-step space.  Step [k]
   eliminated basis position [cpos.(k)] using pivot row [prow.(k)]:

   - [l_rows.(k)] / [l_vals.(k)] hold the multipliers of step [k]
     (unit diagonal implicit): applying step [k] to a work vector [x]
     does [x.(i) <- x.(i) -. x.(prow.(k)) *. l_vals.(k).(j)] for each
     stored row [i = l_rows.(k).(j)].  Rows stored here were unpivoted
     at step [k], so their own steps are all [> k].
   - [u_steps.(k)] / [u_vals.(k)] hold the strictly-upper part of the
     eliminated column, indexed by the *step* of the row they landed
     on (all [< k]); [diag.(k)] is the pivot value.

   Eta terms are stored in basis-position space: replacing position
   [r] by a column with pivot direction [w] makes the new basis
   [B' = B E] where [E] is the identity with column [r] set to [w].
   A border term grows the basis by one row and one column,
   [B' = [[B, 0], [a^T, s]]]; the new row and its position share the
   index [p = size B], and row [p] is never touched by the triangular
   solves, which only know the [base] rows factorized.  FTRAN applies
   the terms oldest first after the triangular solves; BTRAN applies
   them newest first before. *)

type term =
  | Eta of {
      e_r : int; (* basis position replaced *)
      e_rows : int array; (* positions i <> e_r with w_i significant *)
      e_vals : float array;
      e_piv : float; (* w_r *)
    }
  | Border of {
      b_p : int; (* the appended row and position *)
      b_pos : int array; (* older positions k with a_k <> 0 *)
      b_vals : float array;
      b_s : float; (* the new column's entry in the new row *)
    }

type t = {
  base : int; (* the dimension factorized *)
  mutable m : int; (* the dimension now, borders included *)
  prow : int array; (* step -> pivot row *)
  step_of_row : int array; (* row -> step *)
  cpos : int array; (* step -> basis position eliminated *)
  l_rows : int array array;
  l_vals : float array array;
  u_steps : int array array;
  u_vals : float array array;
  diag : float array;
  nnz : int;
  mutable etas : term array; (* growable; first [n_etas] live *)
  mutable n_etas : int;
  mutable etas_nnz : int;
}

let size t = t.m
let eta_count t = t.n_etas
let eta_nnz t = t.etas_nnz
let factor_nnz t = t.nnz

let drop_tol = 1e-12
let singular_tol = 1e-10
let threshold = 0.1 (* partial-pivoting relative threshold *)

let factorize ~m ~col =
  if m = 0 then
    Some
      {
        base = 0;
        m = 0;
        prow = [||];
        step_of_row = [||];
        cpos = [||];
        l_rows = [||];
        l_vals = [||];
        u_steps = [||];
        u_vals = [||];
        diag = [||];
        nnz = 0;
        etas = [||];
        n_etas = 0;
        etas_nnz = 0;
      }
  else begin
    (* Gather the columns once so we can order them sparsest-first and
       count row occupancy for the Markowitz tie-break. *)
    let cols = Array.make m ([||], [||]) in
    let row_count = Array.make m 0 in
    let acc = Array.make m 0.0 in
    let touched = Array.make m false in
    let order_buf = Array.make m 0 in
    for j = 0 to m - 1 do
      let n = ref 0 in
      col j (fun r v ->
          if not touched.(r) then begin
            touched.(r) <- true;
            order_buf.(!n) <- r;
            incr n
          end;
          acc.(r) <- acc.(r) +. v);
      let rows = Array.make !n 0 and vals = Array.make !n 0.0 in
      let k = ref 0 in
      for i = 0 to !n - 1 do
        let r = order_buf.(i) in
        if abs_float acc.(r) > drop_tol then begin
          rows.(!k) <- r;
          vals.(!k) <- acc.(r);
          incr k;
          row_count.(r) <- row_count.(r) + 1
        end;
        acc.(r) <- 0.0;
        touched.(r) <- false
      done;
      cols.(j) <- (Array.sub rows 0 !k, Array.sub vals 0 !k)
    done;
    let order = Array.init m (fun j -> j) in
    Array.sort
      (fun a b ->
        let la = Array.length (fst cols.(a))
        and lb = Array.length (fst cols.(b)) in
        if la <> lb then compare la lb else compare a b)
      order;
    let prow = Array.make m (-1) in
    let step_of_row = Array.make m (-1) in
    let cpos = Array.make m (-1) in
    let l_rows = Array.make m [||] in
    let l_vals = Array.make m [||] in
    let u_steps = Array.make m [||] in
    let u_vals = Array.make m [||] in
    let diag = Array.make m 0.0 in
    let nnz = ref 0 in
    let x = Array.make m 0.0 in
    let live = Array.make m 0 in
    let singular = ref false in
    let k = ref 0 in
    while (not !singular) && !k < m do
      let j = order.(!k) in
      let rows, vals = cols.(j) in
      let nlive = ref 0 in
      let note r =
        if not touched.(r) then begin
          touched.(r) <- true;
          live.(!nlive) <- r;
          incr nlive
        end
      in
      Array.iteri
        (fun i r ->
          note r;
          x.(r) <- x.(r) +. vals.(i))
        rows;
      (* Left-looking: apply every previous elimination step in order
         (this solves L z = a_j). *)
      for s = 0 to !k - 1 do
        let pr = prow.(s) in
        let xs = x.(pr) in
        if abs_float xs > drop_tol then begin
          let lr = l_rows.(s) and lv = l_vals.(s) in
          for i = 0 to Array.length lr - 1 do
            let r = lr.(i) in
            note r;
            x.(r) <- x.(r) -. (xs *. lv.(i))
          done
        end
      done;
      (* Split into the U part (already-pivoted rows) and pivot
         candidates; choose the pivot by threshold + occupancy. *)
      let nu = ref 0 and nl = ref 0 in
      let amax = ref 0.0 in
      for i = 0 to !nlive - 1 do
        let r = live.(i) in
        let v = x.(r) in
        if abs_float v > drop_tol then
          if step_of_row.(r) >= 0 then incr nu
          else begin
            incr nl;
            if abs_float v > !amax then amax := abs_float v
          end
      done;
      if !amax < singular_tol then singular := true
      else begin
        let pivot = ref (-1) in
        let best_occ = ref max_int in
        for i = 0 to !nlive - 1 do
          let r = live.(i) in
          if step_of_row.(r) < 0 then begin
            let v = abs_float x.(r) in
            if v > drop_tol && v >= threshold *. !amax then
              if
                row_count.(r) < !best_occ
                || (row_count.(r) = !best_occ && r < !pivot)
              then begin
                best_occ := row_count.(r);
                pivot := r
              end
          end
        done;
        let piv = !pivot in
        let d = x.(piv) in
        let us = Array.make !nu 0 and uv = Array.make !nu 0.0 in
        let lr = Array.make (!nl - 1) 0 and lv = Array.make (!nl - 1) 0.0 in
        let iu = ref 0 and il = ref 0 in
        for i = 0 to !nlive - 1 do
          let r = live.(i) in
          let v = x.(r) in
          if abs_float v > drop_tol then
            if step_of_row.(r) >= 0 then begin
              us.(!iu) <- step_of_row.(r);
              uv.(!iu) <- v;
              incr iu
            end
            else if r <> piv then begin
              lr.(!il) <- r;
              lv.(!il) <- v /. d;
              incr il
            end;
          x.(r) <- 0.0;
          touched.(r) <- false
        done;
        prow.(!k) <- piv;
        step_of_row.(piv) <- !k;
        cpos.(!k) <- j;
        diag.(!k) <- d;
        l_rows.(!k) <- Array.sub lr 0 !il;
        l_vals.(!k) <- Array.sub lv 0 !il;
        u_steps.(!k) <- Array.sub us 0 !iu;
        u_vals.(!k) <- Array.sub uv 0 !iu;
        nnz := !nnz + !iu + !il + 1;
        incr k
      end
    done;
    if !singular then None
    else
      Some
        {
          base = m;
          m;
          prow;
          step_of_row;
          cpos;
          l_rows;
          l_vals;
          u_steps;
          u_vals;
          diag;
          nnz = !nnz;
          etas = [||];
          n_etas = 0;
          etas_nnz = 0;
        }
  end

let push t e nnz =
  if t.n_etas >= Array.length t.etas then begin
    let cap = max 8 (2 * Array.length t.etas) in
    let etas = Array.make cap e in
    Array.blit t.etas 0 etas 0 t.n_etas;
    t.etas <- etas
  end;
  t.etas.(t.n_etas) <- e;
  t.n_etas <- t.n_etas + 1;
  t.etas_nnz <- t.etas_nnz + nnz

let update t ~r ~w =
  let n = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> r && abs_float w.(i) > drop_tol then incr n
  done;
  let rows = Array.make !n 0 and vals = Array.make !n 0.0 in
  let k = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> r && abs_float w.(i) > drop_tol then begin
      rows.(!k) <- i;
      vals.(!k) <- w.(i);
      incr k
    end
  done;
  push t (Eta { e_r = r; e_rows = rows; e_vals = vals; e_piv = w.(r) }) (!n + 1)

let append t ~a ~s =
  let a = List.filter (fun (_, v) -> abs_float v > drop_tol) a in
  let b_pos = Array.of_list (List.map fst a)
  and b_vals = Array.of_list (List.map snd a) in
  push t (Border { b_p = t.m; b_pos; b_vals; b_s = s }) (Array.length b_pos + 1);
  t.m <- t.m + 1

let ftran t b =
  let m0 = t.base in
  let y = Array.copy b in
  (* L solve, in step order. *)
  for k = 0 to m0 - 1 do
    let v = y.(t.prow.(k)) in
    if v <> 0.0 then begin
      let lr = t.l_rows.(k) and lv = t.l_vals.(k) in
      for i = 0 to Array.length lr - 1 do
        y.(lr.(i)) <- y.(lr.(i)) -. (v *. lv.(i))
      done
    end
  done;
  (* U back-substitution; w is indexed by step. *)
  let w = Array.make m0 0.0 in
  for k = m0 - 1 downto 0 do
    let wk = y.(t.prow.(k)) /. t.diag.(k) in
    w.(k) <- wk;
    if wk <> 0.0 then begin
      let us = t.u_steps.(k) and uv = t.u_vals.(k) in
      for i = 0 to Array.length us - 1 do
        let pr = t.prow.(us.(i)) in
        y.(pr) <- y.(pr) -. (wk *. uv.(i))
      done
    end
  done;
  (* Back to basis-position space (a bordered row still holds its rhs),
     then replay the terms. *)
  let x = Array.make t.m 0.0 in
  for k = 0 to m0 - 1 do
    x.(t.cpos.(k)) <- w.(k)
  done;
  Array.blit b m0 x m0 (t.m - m0);
  for e = 0 to t.n_etas - 1 do
    match t.etas.(e) with
    | Eta { e_r; e_rows; e_vals; e_piv } ->
      let xr = x.(e_r) /. e_piv in
      x.(e_r) <- xr;
      if xr <> 0.0 then
        for i = 0 to Array.length e_rows - 1 do
          x.(e_rows.(i)) <- x.(e_rows.(i)) -. (e_vals.(i) *. xr)
        done
    | Border { b_p; b_pos; b_vals; b_s } ->
      (* x_p = (b_p - a . x) / s *)
      let acc = ref x.(b_p) in
      for i = 0 to Array.length b_pos - 1 do
        acc := !acc -. (b_vals.(i) *. x.(b_pos.(i)))
      done;
      x.(b_p) <- !acc /. b_s
  done;
  x

let btran t c =
  let m0 = t.base in
  let d = Array.copy c in
  (* Terms, newest first: an eta changes only component e_r; a border
     fixes y_p = c_p / s and moves its a y_p off the older components. *)
  for e = t.n_etas - 1 downto 0 do
    match t.etas.(e) with
    | Eta { e_r; e_rows; e_vals; e_piv } ->
      let s = ref 0.0 in
      for i = 0 to Array.length e_rows - 1 do
        s := !s +. (d.(e_rows.(i)) *. e_vals.(i))
      done;
      d.(e_r) <- (d.(e_r) -. !s) /. e_piv
    | Border { b_p; b_pos; b_vals; b_s } ->
      let yp = d.(b_p) /. b_s in
      d.(b_p) <- yp;
      if yp <> 0.0 then
        for i = 0 to Array.length b_pos - 1 do
          d.(b_pos.(i)) <- d.(b_pos.(i)) -. (b_vals.(i) *. yp)
        done
  done;
  (* U^T forward solve, indexed by step. *)
  let v = Array.make m0 0.0 in
  for k = 0 to m0 - 1 do
    let s = ref 0.0 in
    let us = t.u_steps.(k) and uv = t.u_vals.(k) in
    for i = 0 to Array.length us - 1 do
      s := !s +. (v.(us.(i)) *. uv.(i))
    done;
    v.(k) <- (d.(t.cpos.(k)) -. !s) /. t.diag.(k)
  done;
  (* L^T backward solve; rows in l column k all have step > k. *)
  for k = m0 - 1 downto 0 do
    let s = ref 0.0 in
    let lr = t.l_rows.(k) and lv = t.l_vals.(k) in
    for i = 0 to Array.length lr - 1 do
      s := !s +. (lv.(i) *. v.(t.step_of_row.(lr.(i))))
    done;
    v.(k) <- v.(k) -. !s
  done;
  let y = Array.make t.m 0.0 in
  for k = 0 to m0 - 1 do
    y.(t.prow.(k)) <- v.(k)
  done;
  Array.blit d m0 y m0 (t.m - m0);
  y
