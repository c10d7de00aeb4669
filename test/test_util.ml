(* Tests for the utility library: deterministic RNG, statistics, the
   ASCII table renderer, the JSON string writer, and the worker pool. *)

module Rng = Sherlock_util.Rng
module Stats = Sherlock_util.Stats
module Table = Sherlock_util.Table

let check = Alcotest.check

(* --- Rng --- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues stream" (Rng.bits64 a) (Rng.bits64 b)

let test_split_diverges () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check Alcotest.bool "split independent" true (Rng.bits64 a <> Rng.bits64 b)

let test_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let r = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_range_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 500 do
    let v = Rng.range r 10 20 in
    check Alcotest.bool "in [10,20]" true (v >= 10 && v <= 20)
  done

let test_range_singleton () =
  let r = Rng.create 5 in
  check Alcotest.int "lo=hi" 4 (Rng.range r 4 4)

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 500 do
    let v = Rng.float r 2.5 in
    check Alcotest.bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_shuffle_permutation () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_pick_member () =
  let r = Rng.create 17 in
  for _ = 1 to 100 do
    let v = Rng.pick r [ 1; 2; 3 ] in
    check Alcotest.bool "member" true (List.mem v [ 1; 2; 3 ])
  done

let test_pick_empty () =
  let r = Rng.create 17 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r []))

let test_bool_mixes () =
  let r = Rng.create 23 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  check Alcotest.bool "roughly fair" true (!trues > 300 && !trues < 700)

(* --- Stats --- *)

let feq = Alcotest.float 1e-9

let test_mean () =
  check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "mean empty" 0.0 (Stats.mean [])

let test_stddev () =
  check feq "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check feq "short" 0.0 (Stats.stddev [ 5.0 ]);
  check (Alcotest.float 1e-6) "known" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_cv () =
  check feq "zero mean" 0.0 (Stats.coefficient_of_variation [ 0.0; 0.0 ]);
  check (Alcotest.float 1e-6) "cv"
    (sqrt (2.0 /. 3.0) /. 2.0)
    (Stats.coefficient_of_variation [ 1.0; 2.0; 3.0 ])

let test_percentile_rank () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check feq "below all" 0.0 (Stats.percentile_rank xs 1.0);
  check feq "above all" 1.0 (Stats.percentile_rank xs 5.0);
  check feq "middle" 0.5 (Stats.percentile_rank xs 3.0);
  check feq "empty" 0.0 (Stats.percentile_rank [] 3.0)

let test_median () =
  check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check feq "empty" 0.0 (Stats.median [])

let test_quantile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  check feq "q1 nearest rank" 2.0 (Stats.quantile 0.25 xs);
  check feq "q3 nearest rank" 4.0 (Stats.quantile 0.75 xs);
  check feq "p = 0 is the minimum" 1.0 (Stats.quantile 0.0 xs);
  check feq "p = 1 is the maximum" 5.0 (Stats.quantile 1.0 xs);
  check feq "even count" 2.0 (Stats.quantile 0.5 [ 4.0; 1.0; 2.0; 3.0 ]);
  check feq "empty" 0.0 (Stats.quantile 0.5 [])

let test_sum () = check feq "sum" 6.0 (Stats.sum [ 1.0; 2.0; 3.0 ])

(* --- Table --- *)

let test_table_alignment () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  Table.add_row t [ "z" ];
  let s = Table.render t in
  check Alcotest.bool "contains title" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check Alcotest.bool "has rows" true (List.length lines >= 5)

let test_table_separator () =
  let t = Table.create ~title:"T" ~header:[ "a" ] in
  Table.add_row t [ "1" ];
  Table.add_separator t;
  Table.add_row t [ "2" ];
  let s = Table.render t in
  let dashes = List.filter (fun l -> String.length l > 0 && l.[0] = '-')
      (String.split_on_char '\n' s) in
  check Alcotest.int "three rules" 3 (List.length dashes)

(* --- properties --- *)

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= List.fold_left min infinity xs -. 1e-9
      && m <= List.fold_left max neg_infinity xs +. 1e-9)

let prop_stddev_nonneg =
  QCheck.Test.make ~name:"stddev non-negative" ~count:200
    QCheck.(list (float_range (-100.) 100.))
    (fun xs -> Stats.stddev xs >= 0.0)

let prop_percentile_in_unit =
  QCheck.Test.make ~name:"percentile rank in [0,1]" ~count:200
    QCheck.(pair (list (float_range 0. 10.)) (float_range 0. 10.))
    (fun (xs, x) ->
      let p = Stats.percentile_rank xs x in
      p >= 0.0 && p <= 1.0)

(* --- JSON strings --- *)

(* Every ASCII byte, control characters included, written as a JSON
   string and read back by the provenance parser. *)
let test_json_string_roundtrip () =
  let s = String.init 0x80 Char.chr in
  let buf = Buffer.create 512 in
  Sherlock_util.Json_string.add buf s;
  match Sherlock_provenance.Json.of_string (Buffer.contents buf) with
  | Ok (Sherlock_provenance.Json.Str s') -> check Alcotest.string "round trip" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e

let qcheck = List.map QCheck_alcotest.to_alcotest

(* The splitmix64 stream, hard-coded: every schedule and every synthetic
   log replays from it, so a change to any value here changes them all.
   Per seed: the first 8 [bits64]; then, from a fresh generator, [int]
   at bounds 3, 1000, [max_int] and 7, a [float 1.0], a [bool], and the
   next draw of a [copy] taken there, of the parent after a [split] and
   of the split-off child. *)
let rng_golden =
  [
    ( 0,
      [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
        0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
        0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ],
      [ 0; 850; 243808509735772839; 2 ], 0x1.b39896a51a87p-4, false,
      (0x2c829abe1f4532e1L, 0xc584133ac916ab3cL, 0x6a9216023fd7dc5dL) );
    ( 1,
      [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL;
        0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L;
        0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L ],
      [ 2; 259; 4344233626714057392; 3 ], 0x1.c6ed53634406cp-2, false,
      (0xe099ec6cd7363ca5L, 0x85e7bb0f12278575L, 0xf52105eb43095af5L) );
    ( 42,
      [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
        0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
        0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ],
      [ 0; 145; 2569641874231381929; 1 ], 0x1.378b0b448904p-5, false,
      (0x37e9671c45376d5dL, 0xccf635ee9e9e2fa4L, 0xc81e7327cf51cb2aL) );
    ( -1,
      [ 0xe4d971771b652c20L; 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L;
        0x6d1db36ccba982d2L; 0xb4a0472e578069aeL; 0xd31dadbda438bb33L;
        0xf14f2cf802083fa5L; 0x405da438a39e8064L ],
      [ 1; 484; 2024363799162208500; 3 ], 0x1.69408e5caf00dp-1, true,
      (0xf14f2cf802083fa5L, 0x405da438a39e8064L, 0xb0e8ce0b13273a1cL) );
    ( max_int,
      [ 0x43df0885536978a6L; 0x101018cc4a4cadfdL; 0xf7123db96bb11521L;
        0x6eb32f7ee5175c16L; 0xb954958d2f637748L; 0xe07958afd6d62eb7L;
        0xbce9aaa54afdb47eL; 0x07eea021a2857177L ],
      [ 1; 870; 4289994053339613841; 3 ], 0x1.72a92b1a5ec6ep-1, true,
      (0xbce9aaa54afdb47eL, 0x07eea021a2857177L, 0x1c56222ae31ce0daL) );
    ( min_int,
      [ 0x09590f27f150c2b1L; 0x7f63aa8bd4ea43d6L; 0xbc77e3955694b236L;
        0x501e7b560f8116f2L; 0x85e105df28cd57d3L; 0xb7a6003f083c812fL;
        0xbe989c9dc741db04L; 0x95b04985a6e5d6a3L ],
      [ 0; 731; 2178600697523231004; 5 ], 0x1.0bc20bbe519aap-1, true,
      (0xbe989c9dc741db04L, 0x95b04985a6e5d6a3L, 0xd9393b79d6a8cbd7L) );
  ]

let test_golden_stream () =
  List.iter
    (fun (seed, bits, ints, f, b, (copied, parent, child)) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      let g = Rng.create seed in
      check Alcotest.(list int64) (name "bits64") bits
        (List.init 8 (fun _ -> Rng.bits64 g));
      let g = Rng.create seed in
      let drawn = List.map (Rng.int g) [ 3; 1000; max_int; 7 ] in
      check Alcotest.(list int) (name "int") ints drawn;
      check Alcotest.int64 (name "float bits") (Int64.bits_of_float f)
        (Int64.bits_of_float (Rng.float g 1.0));
      check Alcotest.bool (name "bool") b (Rng.bool g);
      let c = Rng.copy g in
      let s = Rng.split g in
      check Alcotest.int64 (name "after split") parent (Rng.bits64 g);
      check Alcotest.int64 (name "split child") child (Rng.bits64 s);
      check Alcotest.int64 (name "copy") copied (Rng.bits64 c))
    rng_golden

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "range bounds" `Quick test_range_bounds;
          Alcotest.test_case "range singleton" `Quick test_range_singleton;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_pick_member;
          Alcotest.test_case "pick empty" `Quick test_pick_empty;
          Alcotest.test_case "bool mixes" `Quick test_bool_mixes;
          Alcotest.test_case "golden stream" `Quick test_golden_stream;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "cv" `Quick test_cv;
          Alcotest.test_case "percentile rank" `Quick test_percentile_rank;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "sum" `Quick test_sum;
        ] );
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "separator" `Quick test_table_separator;
        ] );
      ( "json_string",
        [ Alcotest.test_case "ascii round trip" `Quick test_json_string_roundtrip ] );
      ( "properties",
        qcheck
          [ prop_rng_int_uniformish; prop_mean_bounds; prop_stddev_nonneg;
            prop_percentile_in_unit ] );
    ]
