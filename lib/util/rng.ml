(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: storing into such a field boxes a fresh [int64] on
   every draw, while [Bytes.set_int64_ne] writes the raw bits in place.
   With [bits64] inlined into the draws below, a draw allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 step: advance by the golden gamma, then mix. *)
let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo + int t (hi - lo + 1)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))
