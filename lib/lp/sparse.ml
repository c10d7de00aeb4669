(* Growable sparse matrix: CSR-style row storage plus per-column
   occurrence lists, both maintained on append.  Rows and columns are
   immutable once added; the structure only grows, which is exactly the
   lifecycle of the incremental LP (variables and constraints accumulate
   across rounds, coefficients never change). *)

type t = {
  mutable nrows : int;
  mutable ncols : int;
  (* CSR rows: [row_ptr.(i) .. row_ptr.(i+1))] indexes into row_col/row_val. *)
  mutable row_ptr : int array;
  mutable row_col : int array;
  mutable row_val : float array;
  mutable nnz : int;
  (* Per-column occurrence lists: rows (and coefficients) touching the
     column, in row order. *)
  mutable col_row : int array array;
  mutable col_val : float array array;
  mutable col_len : int array;
}

let create () =
  {
    nrows = 0;
    ncols = 0;
    row_ptr = Array.make 8 0;
    row_col = Array.make 16 0;
    row_val = Array.make 16 0.0;
    nnz = 0;
    col_row = Array.make 8 [||];
    col_val = Array.make 8 [||];
    col_len = Array.make 8 0;
  }

let nrows t = t.nrows

let ncols t = t.ncols

let nnz t = t.nnz

let grow_int a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_arr a n empty =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) empty in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_col t =
  let c = t.ncols in
  t.ncols <- c + 1;
  t.col_row <- grow_arr t.col_row (c + 1) [||];
  t.col_val <- grow_arr t.col_val (c + 1) [||];
  t.col_len <- grow_int t.col_len (c + 1) 0;
  t.col_row.(c) <- [||];
  t.col_val.(c) <- [||];
  t.col_len.(c) <- 0;
  c

let col_push t c row v =
  let len = t.col_len.(c) in
  if len >= Array.length t.col_row.(c) then begin
    t.col_row.(c) <- grow_int t.col_row.(c) (max 4 (2 * len)) 0;
    t.col_val.(c) <- grow_float t.col_val.(c) (max 4 (2 * len))
  end;
  t.col_row.(c).(len) <- row;
  t.col_val.(c).(len) <- v;
  t.col_len.(c) <- len + 1

(* Entries with equal column indices are merged and ~0 coefficients
   dropped, so both views stay canonical. *)
let add_row t entries =
  let entries =
    List.sort (fun (a, _) (b, _) -> compare a b) entries
    |> List.fold_left
         (fun acc (c, v) ->
           match acc with
           | (c', v') :: rest when c' = c -> (c', v' +. v) :: rest
           | _ -> (c, v) :: acc)
         []
    |> List.filter (fun (_, v) -> abs_float v > 1e-12)
    |> List.rev
  in
  let i = t.nrows in
  t.nrows <- i + 1;
  t.row_ptr <- grow_int t.row_ptr (i + 2) 0;
  let n = List.length entries in
  t.row_col <- grow_int t.row_col (t.nnz + n) 0;
  t.row_val <- grow_float t.row_val (t.nnz + n);
  List.iter
    (fun (c, v) ->
      if c < 0 || c >= t.ncols then invalid_arg "Sparse.add_row: unknown column";
      t.row_col.(t.nnz) <- c;
      t.row_val.(t.nnz) <- v;
      t.nnz <- t.nnz + 1;
      col_push t c i v)
    entries;
  t.row_ptr.(i + 1) <- t.nnz;
  i

let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.row_col.(k) t.row_val.(k)
  done

let iter_col t c f =
  let rows = t.col_row.(c) and vals = t.col_val.(c) in
  for k = 0 to t.col_len.(c) - 1 do
    f rows.(k) vals.(k)
  done

let row_nnz t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let col_nnz t c = t.col_len.(c)

(* A_j . v — the pricing primitive: a reduced cost is c_j minus this. *)
let col_dot t c v =
  let rows = t.col_row.(c) and vals = t.col_val.(c) in
  let acc = ref 0.0 in
  for k = 0 to t.col_len.(c) - 1 do
    acc := !acc +. (vals.(k) *. v.(rows.(k)))
  done;
  !acc

(* One row's share of a pivot row: alpha += s * A_i.  Called over the
   rows in increasing order, starting from zeros, each [alpha.(c)] adds
   the products [col_dot t c] adds, in the same order. *)
let axpy_row t i s alpha ~seen ~touched n =
  let n = ref n in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    let c = t.row_col.(k) in
    if not seen.(c) then begin
      seen.(c) <- true;
      touched.(!n) <- c;
      incr n
    end;
    alpha.(c) <- alpha.(c) +. (t.row_val.(k) *. s)
  done;
  !n
