let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let sq_dev x = (x -. m) *. (x -. m) in
    sqrt (mean (List.map sq_dev xs))

let coefficient_of_variation xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else stddev xs /. m

let percentile_rank xs x =
  match xs with
  | [] -> 0.0
  | _ ->
    let below = List.length (List.filter (fun y -> y < x) xs) in
    float_of_int below /. float_of_int (List.length xs)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quantile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
