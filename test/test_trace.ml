(* Tests for the trace layer: operation ids, logs, duration pairing, and
   acquire/release window extraction. *)

open Sherlock_trace

let check = Alcotest.check

let ev ?(target = 1) ?(delayed_by = 0) time tid op =
  Event.make ~time ~tid ~op ~target ~delayed_by ()

let mklog ?(threads = 4) events =
  Log.create ~events ~duration:1_000_000 ~threads ~volatile_addrs:(Hashtbl.create 1)

(* --- Opid --- *)

let test_opid_identity () =
  let a = Opid.read ~cls:"C" "f" and b = Opid.read ~cls:"C" "f" in
  check Alcotest.bool "equal" true (Opid.equal a b);
  check Alcotest.int "compare" 0 (Opid.compare a b);
  check Alcotest.bool "hash equal" true (Opid.hash a = Opid.hash b);
  check Alcotest.bool "kind distinguishes" false
    (Opid.equal a (Opid.write ~cls:"C" "f"))

let test_opid_kinds () =
  check Alcotest.bool "read is access" true (Opid.is_access (Opid.read ~cls:"C" "f"));
  check Alcotest.bool "begin is frame" true (Opid.is_frame (Opid.enter ~cls:"C" "m"));
  check Alcotest.bool "frame not access" false
    (Opid.is_access (Opid.exit ~cls:"C" "m"))

let test_opid_system () =
  check Alcotest.bool "monitor is system" true
    (Opid.is_system (Opid.enter ~cls:"System.Threading.Monitor" "Enter"));
  check Alcotest.bool "microsoft is system" true
    (Opid.is_system (Opid.enter ~cls:"Microsoft.VisualStudio.TestTools" "X"));
  check Alcotest.bool "app is not" false (Opid.is_system (Opid.enter ~cls:"App.C" "m"));
  check Alcotest.bool "System.Linq.Dynamic is app code" false
    (Opid.is_system (Opid.enter ~cls:"System.Linq.Dynamic.ClassFactory" "m"))

let test_opid_strings () =
  check Alcotest.string "read" "Read-C::f" (Opid.to_string (Opid.read ~cls:"C" "f"));
  check Alcotest.string "write" "Write-C::f" (Opid.to_string (Opid.write ~cls:"C" "f"));
  check Alcotest.string "begin" "C::m-Begin" (Opid.to_string (Opid.enter ~cls:"C" "m"));
  check Alcotest.string "end" "C::m-End" (Opid.to_string (Opid.exit ~cls:"C" "m"));
  check Alcotest.string "method key" "C::m" (Opid.method_key (Opid.enter ~cls:"C" "m"))

let test_opid_name_validation () =
  (* Whitespace and control characters would corrupt the space-delimited
     text format; every constructor must reject them, naming the
     offending character, for either component. *)
  let expect_reject name =
    List.iter
      (fun ctor ->
        match ctor () with
        | (_ : Opid.t) -> Alcotest.failf "accepted %S" name
        | exception Invalid_argument msg ->
          check Alcotest.bool
            (Printf.sprintf "%S names the module" msg)
            true
            (String.length msg >= 5 && String.sub msg 0 5 = "Opid:"))
      [
        (fun () -> Opid.read ~cls:name "f");
        (fun () -> Opid.write ~cls:"C" name);
        (fun () -> Opid.enter ~cls:name "m");
        (fun () -> Opid.exit ~cls:"C" name);
      ]
  in
  List.iter expect_reject
    [ "Bad Name"; "tab\there"; "new\nline"; "nul\x00"; "del\x7f" ];
  Alcotest.check_raises "message pinpoints the character"
    (Invalid_argument
       "Opid: invalid character ' ' in operation name \"Bad Name\"")
    (fun () -> ignore (Opid.read ~cls:"Bad Name" "f"));
  (* Punctuation-heavy but printable names are legitimate (C# generics,
     compiler-generated members) and must pass. *)
  List.iter
    (fun n -> ignore (Opid.read ~cls:"N.C`1" n))
    [ "<Main>b__0"; "op_Equality"; "f" ]

let test_opid_counterpart () =
  check Alcotest.bool "read<->write" true
    (Opid.equal (Opid.counterpart (Opid.read ~cls:"C" "f")) (Opid.write ~cls:"C" "f"));
  check Alcotest.bool "begin<->end" true
    (Opid.equal (Opid.counterpart (Opid.enter ~cls:"C" "m")) (Opid.exit ~cls:"C" "m"))

(* Ops are hash-consed: equal names give the physically same record
   through every constructor and loader. *)
let test_opid_interning () =
  let same what a b = check Alcotest.bool what true (a == b) in
  let r = Opid.read ~cls:"I.C" "f" and w = Opid.write ~cls:"I.C" "f" in
  let b = Opid.enter ~cls:"I.C" "m" and e = Opid.exit ~cls:"I.C" "m" in
  same "read twice" r (Opid.read ~cls:"I.C" "f");
  same "fresh name strings" r (Opid.read ~cls:("I." ^ "C") (String.make 1 'f'));
  same "counterpart" w (Opid.counterpart r);
  same "counterpart of counterpart" r (Opid.counterpart (Opid.counterpart r));
  same "with_kind" e (Opid.with_kind b Opid.End);
  same "with_kind, same kind" b (Opid.with_kind b Opid.Begin);
  let log = mklog [ ev 10 0 r; ev 20 1 w; ev 30 0 b; ev 40 0 e ] in
  List.iter
    (fun format ->
      let log' = Trace_io.of_string (Trace_io.to_string ~format log) in
      Array.iter2
        (fun (x : Event.t) (y : Event.t) ->
          same (Trace_io.format_name format ^ " load") x.op y.op)
        log.events log'.events)
    [ Trace_io.Text; Trace_io.Binary ];
  let synth = Synth.log ~seed:3 ~addrs:16 ~threads:2 ~events:500 () in
  Array.iter
    (fun (x : Event.t) ->
      same "synth" x.op
        (Opid.with_kind (Opid.read ~cls:x.op.cls x.op.member) x.op.kind))
    synth.events

(* equal a b <=> compare a b = 0 <=> a == b, and [compare] orders by
   name whatever the creation order. *)
let prop_opid_equal_compare_physical =
  let name = QCheck.Gen.oneofl [ ""; "a"; "b"; "A"; "a.b"; "Z9"; "<x>b__0" ] in
  QCheck.Test.make ~name:"opid: equal iff compare = 0 iff physically equal" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (triple name name (int_bound 3)) (triple name name (int_bound 3))))
    (fun ((c1, m1, k1), (c2, m2, k2)) ->
      let mk c m k = Opid.with_kind (Opid.read ~cls:c m) [| Opid.Read; Write; Begin; End |].(k) in
      let a = mk c1 m1 k1 and b = mk c2 m2 k2 in
      let by_name = compare (c1, m1, k1) (c2, m2, k2) in
      Opid.equal a b = (Opid.compare a b = 0)
      && Opid.equal a b = (a == b)
      && Int.compare (Opid.compare a b) 0 = Int.compare by_name 0
      && (Opid.equal a b = (Opid.hash a = Opid.hash b)))

(* A numbering gives first-appearance numbers 0, 1, ... whatever the
   ids, keeps them through its growth past its first table, and answers
   -1 for an op it never numbered. *)
let test_opid_numbering () =
  let ops = List.init 300 (fun i -> Opid.write ~cls:"Num.C" (Printf.sprintf "f%d" (299 - i))) in
  let n = Opid.Numbering.create () in
  List.iteri
    (fun k op -> check Alcotest.int "first appearance" k (Opid.Numbering.number n op))
    (List.rev ops);
  List.iteri
    (fun k op -> check Alcotest.int "stable" k (Opid.Numbering.number n op))
    (List.rev ops);
  check Alcotest.int "length" 300 (Opid.Numbering.length n);
  List.iteri
    (fun k op ->
      check Alcotest.int "find" k (Opid.Numbering.find n op);
      check Alcotest.bool "op" true (Opid.Numbering.op n k == op))
    (List.rev ops);
  check Alcotest.int "never numbered" (-1) (Opid.Numbering.find n (Opid.read ~cls:"Num.C" "f0"))

(* A rejected name never enters the table, and a load of ops already
   interned adds none: the [opid.interned] counter moves only on a new
   op, and [Opid.interned] counts the table. *)
let test_opid_interned_count () =
  let counter () =
    Sherlock_telemetry.Metrics.Counter.value
      (Sherlock_telemetry.Metrics.counter "opid.interned")
  in
  let n0 = Opid.interned () and c0 = counter () in
  List.iter
    (fun (cls, m) ->
      match Opid.write ~cls m with
      | _ -> Alcotest.failf "accepted %S %S" cls m
      | exception Invalid_argument _ -> ())
    [ ("Never Interned", "f"); ("Never.Interned", "f g"); ("N", "tab\tx") ];
  check Alcotest.int "rejected names leave the table" n0 (Opid.interned ());
  check Alcotest.int "rejected names leave the counter" c0 (counter ());
  let log =
    mklog [ ev 10 0 (Opid.read ~cls:"Count.C" "f"); ev 20 1 (Opid.write ~cls:"Count.C" "f") ]
  in
  let n1 = Opid.interned () and c1 = counter () in
  check Alcotest.int "two new ops" (n0 + 2) n1;
  check Alcotest.int "counted" (c0 + 2) c1;
  List.iter
    (fun format ->
      let s = Trace_io.to_string ~format log in
      ignore (Trace_io.of_string s);
      let n2 = Opid.interned () and c2 = counter () in
      ignore (Trace_io.of_string s);
      check Alcotest.int "second load adds no op" n2 (Opid.interned ());
      check Alcotest.int "second load leaves the counter" c2 (counter ()))
    [ Trace_io.Text; Trace_io.Binary ]

(* --- Log --- *)

let test_log_sorting () =
  let o = Opid.read ~cls:"C" "f" in
  let log = mklog [ ev 30 0 o; ev 10 1 o; ev 20 0 o ] in
  let times = Array.to_list (Array.map (fun (e : Event.t) -> e.time) log.events) in
  check Alcotest.(list int) "sorted" [ 10; 20; 30 ] times

let test_log_queries () =
  let o = Opid.read ~cls:"C" "f" in
  let log = mklog [ ev 10 0 o; ev 20 1 o; ev 30 0 o ] in
  check Alcotest.int "thread events" 2 (List.length (Log.events_of_thread log 0));
  check Alcotest.int "between" 2 (List.length (Log.between log ~lo:10 ~hi:20));
  check Alcotest.bool "active" true (Log.thread_active_in log ~tid:1 ~lo:15 ~hi:25);
  check Alcotest.bool "inactive" false (Log.thread_active_in log ~tid:1 ~lo:21 ~hi:29)

let test_log_empty_fresh () =
  (* [empty] must hand out a fresh value: the volatile-address table is
     mutable, and a shared one would leak state between callers. *)
  let a = Log.empty () in
  Hashtbl.replace a.volatile_addrs 42 ();
  let b = Log.empty () in
  check Alcotest.int "fresh volatile table" 0 (Hashtbl.length b.volatile_addrs);
  check Alcotest.int "no events" 0 (Log.length b)

let test_first_delay_earliest () =
  (* Two delayed events in range: the first one in time must win (the
     seed's fold kept scanning and could report a later one). *)
  let o = Opid.write ~cls:"C" "g" in
  let log =
    mklog
      [
        ev ~target:2 ~delayed_by:5 90 0 o;
        ev ~target:2 ~delayed_by:7 40 0 o;
        ev 10 1 (Opid.read ~cls:"C" "f");
      ]
  in
  match Log.first_delayed_in log ~tid:0 ~lo:0 ~hi:1_000 with
  | Some e ->
    check Alcotest.int "first in time" 40 e.time;
    check Alcotest.int "its delay" 7 e.delayed_by
  | None -> Alcotest.fail "expected a delayed event"

let test_first_delay_bounds () =
  let o = Opid.write ~cls:"C" "g" in
  let log = mklog [ ev ~target:2 ~delayed_by:7 40 0 o ] in
  check Alcotest.bool "outside range" true
    (Log.first_delayed_in log ~tid:0 ~lo:41 ~hi:1_000 = None);
  check Alcotest.bool "wrong thread" true
    (Log.first_delayed_in log ~tid:1 ~lo:0 ~hi:1_000 = None);
  check Alcotest.bool "has_delayed agrees" false
    (Log.has_delayed_in log ~tid:0 ~lo:41 ~hi:1_000);
  check Alcotest.bool "has_delayed hit" true
    (Log.has_delayed_in log ~tid:0 ~lo:40 ~hi:40)

(* --- Log order --- *)

let sorted_counter = Sherlock_telemetry.Metrics.counter "log.order.sorted"

(* [f ()] and how much it grew [log.order.sorted]. *)
let with_sorts f =
  let before = Sherlock_telemetry.Metrics.Counter.value sorted_counter in
  let x = f () in
  (x, Sherlock_telemetry.Metrics.Counter.value sorted_counter - before)

let of_events arr =
  Log.of_array arr ~duration:1_000 ~threads:4 ~volatile_addrs:(Hashtbl.create 1)

(* Slot by slot, the very same event records. *)
let same_slots a b = Array.length a = Array.length b && Array.for_all2 ( == ) a b

let test_log_order_edges () =
  let o = Opid.read ~cls:"C" "f" in
  let log, sorts = with_sorts (fun () -> of_events [||]) in
  check Alcotest.int "empty: no events" 0 (Log.length log);
  check Alcotest.int "empty: not sorted" 0 sorts;
  let one = [| ev 5 3 o |] in
  let log, sorts = with_sorts (fun () -> of_events (Array.copy one)) in
  check Alcotest.bool "one event" true (same_slots one log.events);
  check Alcotest.int "one event: not sorted" 0 sorts;
  let equal = Array.init 12 (fun i -> ev 7 (i mod 3) o) in
  let log, sorts = with_sorts (fun () -> of_events (Array.copy equal)) in
  check Alcotest.bool "equal times keep emission order" true
    (same_slots equal log.events);
  check Alcotest.int "equal times: not sorted" 0 sorts;
  let sorted = [| ev 1 2 o; ev 1 0 o; ev 4 2 o; ev 9 1 o |] in
  let log, sorts = with_sorts (fun () -> of_events sorted) in
  check Alcotest.bool "sorted input used without a copy" true (log.events == sorted);
  check Alcotest.int "sorted: not sorted again" 0 sorts;
  let descending = Array.init 5 (fun i -> ev (50 - i) 0 o) in
  let log, sorts = with_sorts (fun () -> of_events (Array.copy descending)) in
  check Alcotest.bool "one tid descending is reversed" true
    (same_slots (Oracles.time_sort descending) log.events);
  check Alcotest.(list int) "ascending times" [ 46; 47; 48; 49; 50 ]
    (Array.to_list (Array.map (fun (e : Event.t) -> e.time) log.events));
  check Alcotest.int "descending: sorted once" 1 sorts

(* Random arrays for the builder's inserts and the sort behind them:
   times drawn from a narrow range (many ties, within and across tids);
   per-tid clocks that mostly advance but sometimes jump back (tid
   subsequences that are not monotone); strictly descending times, so
   every add moves back past all earlier ones; and times spread over a
   range far wider than the array, so adds land far back.  The last two
   pass [Log.Builder.max_shift] on longer arrays, so the builder gives up
   inserting and [finish] sorts.  Tids are negative, sparse and huge. *)
let gen_order_input =
  QCheck.Gen.(
    let tids = [| -1_000_000; -3; 0; 1; 2; 57; 1 lsl 40 |] in
    let* shape = int_bound 3 in
    let* steps =
      list_size (int_range 0 300)
        (triple (int_range 0 (Array.length tids - 1)) (int_range 0 12) (int_range 0 9))
    in
    let* spread = list_repeat (List.length steps) (int_bound 1_000_000) in
    let clocks = Array.make (Array.length tids) 0 in
    let o = Opid.write ~cls:"C" "f" in
    let n = List.length steps in
    return
      (Array.of_list
         (List.mapi
            (fun i ((t, step, jump), far) ->
              let time =
                match shape with
                | 0 -> step
                | 1 ->
                  clocks.(t) <- (if jump = 0 then clocks.(t) - step else clocks.(t) + step);
                  clocks.(t)
                | 2 -> n - i
                | _ -> far
              in
              ev time tids.(t) o)
            (List.combine steps spread))))

let print_order_input a =
  String.concat " "
    (Array.to_list
       (Array.map (fun (e : Event.t) -> Printf.sprintf "%d@%d" e.tid e.time) a))

let prop_log_order_matches_oracle =
  QCheck.Test.make ~name:"log order is the stable time sort" ~count:500
    (QCheck.make ~print:print_order_input gen_order_input)
    (fun arr ->
      let expected = Oracles.time_sort arr in
      let b = Log.Builder.create () in
      Array.iter (Log.Builder.add b) arr;
      let built =
        Log.Builder.finish b ~duration:1_000 ~threads:4
          ~volatile_addrs:(Hashtbl.create 1)
      in
      same_slots expected (of_events (Array.copy arr)).events
      && same_slots expected built.events)

let shifts_counter = Sherlock_telemetry.Metrics.counter "log.order.shifts"

(* The builder's work bound: whatever the input, its inserts move at
   most [max_shift] events per event added. *)
let prop_builder_shifts_bounded =
  QCheck.Test.make ~name:"builder shifts stay within the scan bound" ~count:300
    (QCheck.make ~print:print_order_input gen_order_input)
    (fun arr ->
      let before = Sherlock_telemetry.Metrics.Counter.value shifts_counter in
      let b = Log.Builder.create () in
      Array.iter (Log.Builder.add b) arr;
      ignore
        (Log.Builder.finish b ~duration:1_000 ~threads:4
           ~volatile_addrs:(Hashtbl.create 1));
      let shifts = Sherlock_telemetry.Metrics.Counter.value shifts_counter - before in
      shifts >= 0 && shifts <= Log.Builder.max_shift * Array.length arr)

(* [log.order.sorted] counts the logs that needed a sort: none for logs
   that arrive in order (synthetic ones, reloaded text traces, and
   simulated runs of contending threads, which the builder keeps in
   order as they fill), one for a shuffled array. *)
let test_log_order_runs_counter () =
  let synth, sorts =
    with_sorts (fun () -> Synth.log ~seed:3 ~addrs:16 ~threads:4 ~events:2_000 ())
  in
  check Alcotest.int "synth log" 0 sorts;
  let _, sorts = with_sorts (fun () -> Trace_io.of_string (Trace_io.to_string synth)) in
  check Alcotest.int "reloaded text trace" 0 sorts;
  let open Sherlock_sim in
  let program () =
    let cell = Heap.cell ~cls:"Stress.Data" ~field:"f" 0 in
    let lock = Monitor.create () in
    let workers =
      List.init 4 (fun w ->
          Threadlib.create ~delegate:("Stress.Data", Printf.sprintf "Worker%d" w)
            (fun () ->
              for _ = 1 to 50 do
                Monitor.with_lock lock (fun () -> Heap.write cell (Heap.read cell + 1))
              done))
    in
    List.iter Threadlib.start workers;
    List.iter Threadlib.join workers
  in
  let log, sorts =
    with_sorts (fun () -> Runtime.run ~seed:1 ~instrument:(Runtime.tracing ()) program)
  in
  check Alcotest.int "simulated stress log arrives in order" 0 sorts;
  let in_order (log : Log.t) =
    let times = Array.map (fun (e : Event.t) -> e.time) log.events in
    Array.for_all2 ( <= ) (Array.sub times 0 (Array.length times - 1))
      (Array.sub times 1 (Array.length times - 1))
  in
  check Alcotest.bool "and comes out in order" true (in_order log);
  let shuffled = Array.copy log.events in
  let rng = Random.State.make [| 7 |] in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  let resorted, sorts = with_sorts (fun () -> of_events shuffled) in
  check Alcotest.int "shuffled array sorted once" 1 sorts;
  check Alcotest.bool "shuffled array comes out in order" true (in_order resorted)

(* --- Durations --- *)

let test_durations_pairing () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let log = mklog [ ev 10 0 b; ev 25 0 e; ev 30 0 b; ev 70 0 e ] in
  let d = Durations.create () in
  Durations.record_log d log;
  check Alcotest.(list (float 1e-9)) "durations" [ 40.0; 15.0 ] (Durations.samples d "C::m")

let test_durations_nested () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let bi = Opid.enter ~cls:"C" "inner" and ei = Opid.exit ~cls:"C" "inner" in
  let log = mklog [ ev 10 0 b; ev 20 0 bi; ev 30 0 ei; ev 50 0 e ] in
  let d = Durations.create () in
  Durations.record_log d log;
  check Alcotest.(list (float 1e-9)) "outer" [ 40.0 ] (Durations.samples d "C::m");
  check Alcotest.(list (float 1e-9)) "inner" [ 10.0 ] (Durations.samples d "C::inner")

let test_durations_skip_delayed_frames () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let w = Opid.write ~cls:"C" "f" in
  let log =
    mklog [ ev 10 0 b; ev ~delayed_by:100_000 100_020 0 w; ev 100_040 0 e;
            ev 200_000 0 b; ev 200_015 0 e ]
  in
  let d = Durations.create () in
  Durations.record_log d log;
  check Alcotest.(list (float 1e-9)) "only undelayed frame" [ 15.0 ]
    (Durations.samples d "C::m")

let test_durations_cv_percentile () =
  let d = Durations.create () in
  let mk cls meth times =
    let b = Opid.enter ~cls meth and e = Opid.exit ~cls meth in
    mklog (List.concat_map (fun (t0, t1) -> [ ev t0 0 b; ev t1 0 e ]) times)
  in
  Durations.record_log d (mk "C" "flat" [ (0, 10); (100, 110); (200, 210) ]);
  Durations.record_log d (mk "C" "vary" [ (0, 10); (300, 500); (1000, 1002) ]);
  check Alcotest.bool "vary has higher cv" true (Durations.cv d "C::vary" > Durations.cv d "C::flat");
  let pct = Durations.cv_percentiles d in
  check Alcotest.bool "vary top percentile" true (pct "C::vary" > pct "C::flat")

(* Per-round CV ranks agree bit for bit with the per-key oracle, over
   random sample sets (ties, zero-mean methods, singletons included) and
   for a method with no samples. *)
let prop_cv_percentiles_match_oracle =
  QCheck.Test.make ~name:"cv percentiles match per-key oracle" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 12)
           (pair (int_range 0 6)
              (oneof [ float_range 0.0 500.0; oneofl [ 0.0; 10.0; 20.0 ] ]))))
    (fun samples ->
      let d = Durations.create () in
      Durations.add_samples d
        (List.map (fun (m, x) -> (Printf.sprintf "C::m%d" m, [| x |])) samples);
      let pct = Durations.cv_percentiles d in
      List.for_all
        (fun key ->
          Int64.bits_of_float (pct key)
          = Int64.bits_of_float (Oracles.cv_percentile d key))
        (Oracles.unseen_method :: Durations.methods d))

(* --- Windows --- *)

let wf = Opid.write ~cls:"C" "f"

let rf = Opid.read ~cls:"C" "f"

let test_window_basic () =
  (* T0 writes, T1 reads soon after: one window with both endpoints. *)
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "one window" 1 (List.length windows);
  check Alcotest.int "no race" 0 (List.length races);
  let w = List.hd windows in
  check Alcotest.bool "rel contains write" true (Windows.Side.mem wf w.rel);
  check Alcotest.bool "acq contains read" true (Windows.Side.mem rf w.acq)

(* The fold counters count events folded into computed sides and the
   entries those sides hold, bumped once per extraction. *)
let test_window_fold_counters () =
  let rg = Opid.read ~cls:"C" "g" in
  let log =
    mklog [ ev 10 0 wf; ev ~target:2 20 1 rg; ev ~target:2 25 1 rg; ev 30 1 rf ]
  in
  let value name = Sherlock_telemetry.Metrics.(Counter.value (counter name)) in
  let folded0 = value "windows.span.folded" in
  let entries0 = value "windows.span.entries" in
  let windows, _ = Windows.extract log in
  check Alcotest.int "one window" 1 (List.length windows);
  (* rel: T0's write (1 event, 1 op); acq: T1's g, g, f (3 events, 2 ops) *)
  check Alcotest.int "events folded" 4 (value "windows.span.folded" - folded0);
  check Alcotest.int "side entries" 3 (value "windows.span.entries" - entries0)

(* The scan and open-frame counters on a hand-built three-thread log.
   Address 1 sees t0 write, t1 read, t2 read, t0 write (accesses a0..a3);
   t0 runs inside an open [outer] frame whose [inner] child closed at 3,
   and t1's [lock] frame spans a0 and a1. *)
let test_window_scan_counters () =
  let frame m = (Opid.enter ~cls:"C" m, Opid.exit ~cls:"C" m) in
  let outer, _ = frame "outer" and inner_b, inner_e = frame "inner" in
  let lock_b, lock_e = frame "lock" in
  let log =
    mklog
      [ ev 1 0 outer; ev 2 0 inner_b; ev 3 0 inner_e; ev 5 1 lock_b; ev 10 0 wf;
        ev 20 1 rf; ev 25 1 lock_e; ev 30 2 rf; ev 40 0 wf ]
  in
  let value name = Sherlock_telemetry.Metrics.(Counter.value (counter name)) in
  let counts ~cap =
    let steps0 = value "windows.scan.steps" in
    let visited0 = value "windows.open_frames.visited" in
    let windows, races = Windows.extract ~cap log in
    ( List.length windows,
      List.length races,
      value "windows.scan.steps" - steps0,
      value "windows.open_frames.visited" - visited0 )
  in
  let quad = Alcotest.(pair (pair int int) (pair int int)) in
  let flat (w, r, s, v) = ((w, r), (s, v)) in
  (* Cap 15: a0 tests a1, a2, a3; a1 tests a2, a3; a2 tests a3: six
     steps.  Candidates (a0,a1) (a0,a2) (a1,a3) (a2,a3); the acquire
     side's open-frame query visits t1's [lock] for (a0,a1), nothing of
     t2, and t0's [inner] then its parent [outer] for each of the last
     two. *)
  check quad "cap 15" ((2, 2), (6, 5)) (flat (counts ~cap:15));
  (* Cap 1: (a0,a1) caps the write/read pair, (a1,a3) the read/write
     pair, which leaves the read row empty: a1's inner loop ends there
     and a2 is skipped, so five steps and two candidates. *)
  check quad "cap 1" ((1, 1), (5, 3)) (flat (counts ~cap:1))

(* A spin flag: t0 polls the flag 100 times, t1 sets it, t0 reads it
   three more times.  The first 15 polls each pair with the write, and
   the 15th caps the read/write pair, which ends the read row; the write
   pairs with the three reads after it.  Each poll's inner loop starts
   at the write, past the polls after it: 14 x 4 + 1 + 3 = 60 steps,
   where walking every later poll from each of the 15 took 1,440. *)
let test_window_spin_flag_steps () =
  let log =
    mklog
      (List.init 100 (fun k -> ev (k + 1) 0 rf)
      @ [ ev 101 1 wf ]
      @ List.init 3 (fun k -> ev (102 + k) 0 rf))
  in
  let value () = Sherlock_telemetry.Metrics.(Counter.value (counter "windows.scan.steps")) in
  let steps0 = value () in
  let windows, races = Windows.extract ~cap:15 log in
  check Alcotest.int "steps" 60 (value () - steps0);
  check Alcotest.int "candidates" 18 (List.length windows + List.length races)

let test_window_near_filter () =
  let log = mklog [ ev 10 0 wf; ev 5_000_000 1 rf ] in
  let windows, races = Windows.extract ~near:1_000_000 log in
  check Alcotest.int "too far apart" 0 (List.length windows);
  check Alcotest.int "no race either" 0 (List.length races)

let test_window_same_thread_excluded () =
  let log = mklog [ ev 10 0 wf; ev 20 0 rf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "same thread no window" 0 (List.length windows + List.length races)

let test_window_read_read_excluded () =
  let log = mklog [ ev 10 0 rf; ev 20 1 rf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "no conflict" 0 (List.length windows + List.length races)

let test_window_cap () =
  let events =
    List.concat_map (fun i -> [ ev ((i * 100) + 10) 0 wf; ev ((i * 100) + 50) 1 rf ]) (List.init 40 Fun.id)
  in
  let log = mklog events in
  let windows, _ = Windows.extract ~cap:15 log in
  let for_pair =
    List.filter (fun (w : Windows.t) -> fst w.pair = wf && snd w.pair = rf) windows
  in
  check Alcotest.bool "capped at 15" true (List.length for_pair <= 15)

let test_window_race_all_writes () =
  (* Acquire side of a write/write pair with nothing else: a race. *)
  let log = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "no window" 0 (List.length windows);
  check Alcotest.int "race" 1 (List.length races)

let test_window_race_all_reads () =
  (* Release side of a read-then-write pair with only reads: a race. *)
  let log = mklog [ ev 10 0 rf; ev 50 1 wf ] in
  let _, races = Windows.extract log in
  check Alcotest.int "race" 1 (List.length races)

let test_window_method_prevents_race () =
  let e = Opid.exit ~cls:"C" "m" in
  let log = mklog [ ev 10 0 wf; ev 20 0 e; ev 50 1 wf; ev 5 1 (Opid.enter ~cls:"C" "n") ] in
  let windows, races = Windows.extract log in
  (* The acquire side picks up the open C::n frame of thread 1, so the
     write/write pair is explicable. *)
  check Alcotest.int "no race" 0 (List.length races);
  check Alcotest.int "window" 1 (List.length windows)

let test_window_open_frame_acquire () =
  (* Thread 1 invoked a method before the release and is still inside it:
     its Begin must be an acquire candidate. *)
  let bm = Opid.enter ~cls:"C" "Wait" and em = Opid.exit ~cls:"C" "Wait" in
  let log = mklog [ ev 5 1 bm; ev 10 0 wf; ev 60 1 em; ev 80 1 rf ] in
  let windows, _ = Windows.extract log in
  let w = List.hd windows in
  check Alcotest.bool "spanning begin included" true (Windows.Side.mem bm w.acq)

let test_window_progressed_frame_excluded () =
  (* Thread 1's frame made progress (a write) before the window: its
     Begin is not plausibly blocked and must not be a candidate. *)
  let bm = Opid.enter ~cls:"C" "Busy" in
  let wg = Opid.write ~cls:"C" "g" in
  let log = mklog [ ev 5 1 bm; ev ~target:2 8 1 wg; ev 10 0 wf; ev 80 1 rf ] in
  let windows, _ = Windows.extract log in
  let w = List.hd windows in
  check Alcotest.bool "progressed begin excluded" false (Windows.Side.mem bm w.acq)

let test_window_open_frame_behind_closed () =
  (* Thread 1 pushes outer, mid and leaf at 5, then closes outer out of
     order and leaf, all at 5: only mid is open when the window starts at
     10, below the last frame pushed, which is closed.  Nothing of thread
     1 lies strictly inside (5, 10), so mid is a candidate. *)
  let frame m = (Opid.enter ~cls:"C" m, Opid.exit ~cls:"C" m) in
  let outer_b, outer_e = frame "outer" and mid_b, _ = frame "mid" in
  let leaf_b, leaf_e = frame "leaf" in
  let log =
    mklog
      [ ev 5 1 outer_b; ev 5 1 mid_b; ev 5 1 leaf_b; ev 5 1 outer_e; ev 5 1 leaf_e;
        ev 10 0 wf; ev 20 1 rf ]
  in
  let windows, _ = Windows.extract log in
  let w = List.hd windows in
  check Alcotest.(list bool) "mid only" [ true; false; false ]
    (List.map (fun op -> Windows.Side.mem op w.acq) [ mid_b; outer_b; leaf_b ])

let test_window_occurrence_counts () =
  let log = mklog [ ev 10 0 wf; ev 20 1 rf; ev 30 1 rf; ev 40 1 rf ] in
  let windows, _ = Windows.extract log in
  (* Last read closes the biggest window: reads occur 3 times there. *)
  let max_count =
    List.fold_left
      (fun acc (w : Windows.t) ->
        max acc (Option.value ~default:0 (Windows.Side.find_opt rf w.acq)))
      0 windows
  in
  check Alcotest.int "occurrences counted" 3 max_count

let test_refinement_propagated () =
  (* Delayed release candidate, other thread silent during the delay:
     acquire window shrinks to [r, b]. *)
  let wg = Opid.write ~cls:"C" "g" in
  let log =
    mklog
      [
        ev 10 0 wf;
        ev ~target:2 20 1 (Opid.read ~cls:"C" "g");
        ev ~target:2 ~delayed_by:100_000 100_120 0 wg;
        ev 100_200 1 rf;
      ]
  in
  let windows, _ = Windows.extract ~refine:true log in
  let w =
    List.find (fun (w : Windows.t) -> Opid.equal (fst w.pair) wf) windows
  in
  (* The early read of g (before the delay) is refined away. *)
  check Alcotest.bool "early acq candidate dropped" false
    (Windows.Side.mem (Opid.read ~cls:"C" "g") w.acq);
  check Alcotest.bool "endpoint kept" true (Windows.Side.mem rf w.acq)

let test_refinement_not_propagated () =
  (* The other thread kept making progress during the delay: that instance
     of the delayed op is discounted from the release side. *)
  let wg = Opid.write ~cls:"C" "g" in
  let wh = Opid.write ~cls:"C" "h" in
  let log =
    mklog
      [
        ev 10 0 wf;
        ev ~target:3 50_000 1 wh;
        (* progress during the delay *)
        ev ~target:2 ~delayed_by:100_000 100_120 0 wg;
        ev 100_200 1 rf;
      ]
  in
  let windows, _ = Windows.extract ~refine:true log in
  let w =
    List.find (fun (w : Windows.t) -> Opid.equal (fst w.pair) wf) windows
  in
  check Alcotest.bool "refuted release instance removed" false
    (Windows.Side.mem wg w.rel);
  check Alcotest.bool "original write kept" true (Windows.Side.mem wf w.rel)

let test_refinement_off () =
  let wg = Opid.write ~cls:"C" "g" in
  let log =
    mklog
      [
        ev 10 0 wf;
        ev ~target:3 50_000 1 (Opid.write ~cls:"C" "h");
        ev ~target:2 ~delayed_by:100_000 100_120 0 wg;
        ev 100_200 1 rf;
      ]
  in
  let windows, _ = Windows.extract ~refine:false log in
  let w =
    List.find (fun (w : Windows.t) -> Opid.equal (fst w.pair) wf) windows
  in
  check Alcotest.bool "kept without refinement" true (Windows.Side.mem wg w.rel)

let gen_ops_for_io =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 2 in
       let* kind = int_range 0 3 in
       let* field = int_range 0 2 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       return (Event.make ~time ~tid ~op ~target:(field + 1) ())))

(* --- Trace_io --- *)

let test_trace_io_roundtrip () =
  let o1 = Opid.read ~cls:"C" "f" and o2 = Opid.enter ~cls:"N.S" "m" in
  let volatile_addrs = Hashtbl.create 2 in
  Hashtbl.replace volatile_addrs 7 ();
  let log =
    Log.create
      ~events:[ ev ~target:7 10 0 o1; ev ~target:3 ~delayed_by:100 20 1 o2 ]
      ~duration:999 ~threads:3 ~volatile_addrs
  in
  let log' = Trace_io.of_string (Trace_io.to_string log) in
  check Alcotest.int "duration" log.duration log'.duration;
  check Alcotest.int "threads" log.threads log'.threads;
  check Alcotest.int "volatiles" 1 (Hashtbl.length log'.volatile_addrs);
  check Alcotest.int "events" (Log.length log) (Log.length log');
  Array.iter2
    (fun (a : Event.t) (b : Event.t) ->
      check Alcotest.bool "op" true (Opid.equal a.op b.op);
      check Alcotest.int "time" a.time b.time;
      check Alcotest.int "tid" a.tid b.tid;
      check Alcotest.int "target" a.target b.target;
      check Alcotest.int "delay" a.delayed_by b.delayed_by)
    log.events log'.events

let test_trace_io_file () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let path = Filename.temp_file "sherlock" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save log path;
      let log' = Trace_io.load path in
      check Alcotest.int "events" 2 (Log.length log'))

(* Regression: a binary save whose tid overflows the 32-bit column
   raised after opening the path, and left an earlier trace there empty. *)
let test_trace_io_failed_save_keeps_file () =
  let path = Filename.temp_file "sherlock" ".btrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary (mklog [ ev 10 0 wf; ev 50 1 rf ]) path;
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let before = read () in
      (match
         Trace_io.save ~format:Trace_io.Binary (mklog [ ev 10 (1 lsl 31) wf ]) path
       with
      | () -> Alcotest.fail "a tid past the 32-bit column was saved"
      | exception Invalid_argument _ -> ());
      check Alcotest.string "old bytes unchanged" before (read ());
      let base = Filename.basename path in
      let litter =
        List.filter
          (fun f -> f <> base && String.starts_with ~prefix:base f)
          (Array.to_list (Sys.readdir (Filename.dirname path)))
      in
      check Alcotest.(list string) "no temporary file left" [] litter)

(* Regression: the volatile lines were written in hashtable order, so a
   reload (a table of another size) could reorder them and save -> load
   -> save changed the bytes. *)
let test_trace_io_canonical () =
  let volatile_addrs = Hashtbl.create 1 in
  for a = 1 to 10 do
    Hashtbl.replace volatile_addrs a ()
  done;
  let log =
    Log.create ~events:[ ev 10 0 wf; ev 50 1 rf ] ~duration:99 ~threads:2
      ~volatile_addrs
  in
  let once = Trace_io.to_string log in
  let twice = Trace_io.to_string (Trace_io.of_string once) in
  check Alcotest.string "save . load . save" once twice;
  let volatiles =
    List.filter_map
      (fun line -> Scanf.sscanf_opt line "volatile %d%!" Fun.id)
      (String.split_on_char '\n' once)
  in
  check Alcotest.(list int) "ascending addresses"
    (List.init 10 succ) volatiles

let test_trace_io_bad_magic () =
  Alcotest.check_raises "bad magic" (Failure "<string>:1: Trace_io: bad magic")
    (fun () -> ignore (Trace_io.of_string "nonsense\n"));
  Alcotest.check_raises "bad magic names the file"
    (Failure "trace.bin:1: Trace_io: bad magic") (fun () ->
      ignore (Trace_io.of_string ~path:"trace.bin" "nonsense\n"))

(* Regression: parse errors used to say only "malformed line"; they must
   now pinpoint the offending file:line (the magic header is line 1, so
   the first record is line 2). *)
let test_trace_io_malformed_line_position () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf; ev 90 0 wf ] in
  let lines = String.split_on_char '\n' (Trace_io.to_string log) in
  let garble n =
    String.concat "\n"
      (List.mapi (fun i l -> if i = n - 1 then "garbage here" else l) lines)
  in
  let expect_failure_at ~path pos text =
    match Trace_io.of_string ~path text with
    | _ -> Alcotest.failf "garbled line %d parsed" pos
    | exception Failure msg ->
      let prefix = Printf.sprintf "%s:%d: Trace_io: malformed line" path pos in
      check Alcotest.bool
        (Printf.sprintf "message %S starts with %S" msg prefix)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  in
  (* Layout: line 1 magic, 2 duration, 3 threads, 4.. event records.
     Garbling the duration header or an event record must name exactly
     that line, in whichever path the caller supplied. *)
  expect_failure_at ~path:"<string>" 2 (garble 2);
  expect_failure_at ~path:"t.trace" 4 (garble 4);
  expect_failure_at ~path:"t.trace" 6 (garble 6);
  (* A truncated record (fields missing) is positioned too. *)
  expect_failure_at ~path:"<string>" 2 (List.hd lines ^ "\ne 10 0\n");
  (* Regression: an empty kind field escaped as [Invalid_argument] from
     indexing its first character. *)
  expect_failure_at ~path:"t.trace" 3
    (List.hd lines ^ "\nthreads 2\ne 1 0  5 0 A B\n")

let test_trace_io_rejects_spaces () =
  (* Regression: the text loader built op records as they came, so a
     name no writer accepts loaded and only failed, unpositioned, on the
     next save.  It is rejected on load, at its line. *)
  Alcotest.check_raises "control character in a loaded name"
    (Failure
       "t.trace:3: Trace_io: Opid: invalid character '\\t' in operation name \"A\\tX\"")
    (fun () ->
      ignore
        (Trace_io.of_string ~path:"t.trace"
           "sherlock-trace 1\ne 1 0 r 5 0 A B\ne 2 0 r 5 0 A\tX B\n"))

(* Every event of a loaded text log shares the one [Opid.t] of its
   (kind, cls, member), as binary loads share their op table. *)
let test_trace_io_shares_ops () =
  let log = mklog [ ev 10 0 wf; ev 20 1 rf; ev 30 0 wf; ev 40 1 rf; ev 50 2 wf ] in
  let log' = Trace_io.of_string (Trace_io.to_string log) in
  let distinct =
    Array.fold_left
      (fun acc (e : Event.t) -> if List.memq e.op acc then acc else e.op :: acc)
      [] log'.events
  in
  check Alcotest.int "one record per distinct op" 2 (List.length distinct)

(* The loader hashes and compares "cls member" a word at a time: names
   that differ only in their last byte stay apart, and so do the four
   kinds of one name.  The comparison reads words from the class's first
   byte, the hash each name's words from that name's first byte; the
   first pair's last byte falls in a whole word of the comparison (32
   bytes) and in the hash's bytewise tail, the second pair's the other
   way round (37 bytes). *)
let test_trace_io_close_names () =
  let cls = "Some.Namespace.Klass" in
  let members =
    [ "LongMember1"; "LongMember2"; "LongMemberName_1"; "LongMemberName_2" ]
  in
  let ops =
    List.concat_map
      (fun m -> [ Opid.read ~cls m; Opid.write ~cls m; Opid.enter ~cls m; Opid.exit ~cls m ])
      members
  in
  let log = mklog (List.mapi (fun i op -> ev (10 * (i + 1)) (i mod 3) op) (ops @ List.rev ops)) in
  let log' = Trace_io.of_string (Trace_io.to_string log) in
  Array.iter2
    (fun (a : Event.t) (b : Event.t) ->
      check Alcotest.string "op" (Opid.to_string a.op) (Opid.to_string b.op);
      check Alcotest.bool "same record" true (a.op == b.op))
    log.events log'.events

(* A last line with no newline ends the string at the member's last
   byte: every length of that member puts the end at another offset in
   the loader's last word, and no read may pass it. *)
let test_trace_io_member_ends_string () =
  for k = 1 to 24 do
    let member = String.init k (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
    let line = "e 1 0 r 5 0 Stress.Data " ^ member in
    let log = Trace_io.of_string ("sherlock-trace 1\n" ^ line) in
    check Alcotest.string "op"
      (Opid.to_string (Opid.read ~cls:"Stress.Data" member))
      (Opid.to_string log.events.(0).op);
    check Alcotest.bool "resaved" true
      (String.ends_with ~suffix:("\n" ^ line ^ "\n") (Trace_io.to_string log))
  done

(* Logs for the oracle comparisons: integers across the whole range
   (negative, near [max_int] and [min_int]), odd but valid names.  The
   names run from 0 to 27 bytes, so a line's "cls member" ends before,
   on and after the loader's 8- and 16-byte word boundaries; one log in
   two has 40-80 events, most of them distinct ops, which grows the
   loader's op cache past its first 32 entries. *)
let gen_wide_int =
  QCheck.Gen.(
    oneof
      [
        int_range (-1000) 1000;
        map (fun k -> max_int - k) (int_bound 3);
        map (fun k -> min_int + k) (int_bound 3);
        int;
      ])

let gen_wide_log =
  QCheck.Gen.(
    let name =
      oneofl
        [ ""; "f"; "P.C"; "A::b"; "get_x"; "\xc3\xa9t\xc3\xa9"; "x~!"; "Stress.Data";
          "get_Value"; "N.Sp.Cls"; "System.Threading"; "<Main>b__0_1"; "Monitor.Enter.X";
          "Microsoft.Build.Y"; "A.Very.Long.Namespace.Klass" ]
    in
    let* events =
      list_size (oneof [ int_range 0 12; int_range 40 80 ])
        (let* time = gen_wide_int and* tid = gen_wide_int and* kind = int_bound 3 in
         let* cls = name and* member = name in
         let* target = gen_wide_int and* delayed_by = gen_wide_int in
         let kind = [| Opid.Read; Write; Begin; End |].(kind) in
         let op = Opid.with_kind (Opid.read ~cls member) kind in
         return (Event.make ~time ~tid ~op ~target ~delayed_by ()))
    in
    let* volatiles = list_size (int_range 0 3) gen_wide_int in
    let* duration = gen_wide_int and* threads = gen_wide_int in
    let volatile_addrs = Hashtbl.create 4 in
    List.iter (fun a -> Hashtbl.replace volatile_addrs a ()) volatiles;
    return (Log.create ~events ~duration ~threads ~volatile_addrs))

let same_log (a : Log.t) (b : Log.t) =
  a.duration = b.duration && a.threads = b.threads
  && Log.volatile_list a = Log.volatile_list b
  && Log.length a = Log.length b
  && Array.for_all2
       (fun (x : Event.t) (y : Event.t) ->
         Opid.equal x.op y.op && x.time = y.time && x.tid = y.tid
         && x.target = y.target && x.delayed_by = y.delayed_by)
       a.events b.events

let prop_text_codec_matches_oracle =
  QCheck.Test.make ~name:"text codec matches the split-based oracle" ~count:300
    (QCheck.make ~print:Oracles.text_of_log gen_wide_log)
    (fun log ->
      let text = Trace_io.to_string log in
      text = Oracles.text_of_log log
      && same_log log (Trace_io.of_string text)
      && same_log log (Oracles.log_of_text text))

(* Line mutations for the loader comparison, each applied to the
   space-separated fields of one line: [(what, line, arg)]. *)
let int_spellings =
  [| "0x1f"; "0X1F"; "1_000"; "_1"; "+5"; "-0"; "007"; "-"; "+"; "0x"; "1e3";
     "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
     "-4611686018427387905"; "9999999999999999999"; "-9999999999999999999";
     "99999999999999999999"; "999999999999999999";
     "-999999999999999999"; "0b101"; "0o17"; "0u42"; "0x7fffffffffffffff";
     "12a"; "--1" |]

let kind_spellings = [| ""; "x"; "R"; "rw"; "read"; "e\r"; "b"; "w"; "ee" |]

let mutate_fields what arg fields =
  let j = arg mod (List.length fields + 1) in
  let insert x =
    List.filteri (fun i _ -> i < j) fields @ (x :: List.filteri (fun i _ -> i >= j) fields)
  in
  let replace x = List.mapi (fun i f -> if i = j then x else f) fields in
  let append suffix = replace (Option.value ~default:"" (List.nth_opt fields j) ^ suffix) in
  let pick a = a.(arg mod Array.length a) in
  match what with
  | 0 -> List.filteri (fun i _ -> i <> j) fields (* dropped field *)
  | 1 -> insert (if arg land 1 = 0 then "7" else "x") (* extra field *)
  | 2 -> replace "" (* empty field *)
  | 3 -> insert "" (* doubled space *)
  | 4 -> replace (pick int_spellings)
  | 5 -> List.mapi (fun i f -> if i = 3 then pick kind_spellings else f) fields
  | 6 -> append "\r"
  | _ -> append "\tX" (* a control character in a name *)

let mutate_text text mutations =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  List.iter
    (fun (what, line, arg) ->
      let k = line mod Array.length lines in
      lines.(k) <-
        String.concat " " (mutate_fields what arg (String.split_on_char ' ' lines.(k))))
    mutations;
  String.concat "\n" (Array.to_list lines)

(* The two inputs the oracle mishandles: an event line with an empty
   kind or with a name no writer accepts (either raises
   [Invalid_argument], unpositioned).  The first such line, if any. *)
let first_bug_line lines =
  let bad name =
    match Opid.check_name name with () -> false | exception Invalid_argument _ -> true
  in
  let is_bug line =
    match String.split_on_char ' ' line with
    | [ "e"; _; _; kind; _; _; cls; member ] ->
      kind = "" || (String.contains "rwbe" kind.[0] && (bad cls || bad member))
    | _ -> false
  in
  List.find_index is_bug lines

(* Whether the loader decides [text] as the oracle does: the same log or
   the same [Failure].  On the oracle's two bug inputs, the lines before
   the first one decide as in the oracle, and the bug line itself is a
   positioned failure. *)
let loader_agrees_with_oracle text =
  let outcome load =
    match load text with
    | log -> Ok log
    | exception Failure msg -> Error msg
  in
  let got = outcome (Trace_io.of_string ~path:"m.trace") in
  let lines = String.split_on_char '\n' text in
  match first_bug_line lines with
  | Some k when k > 0 -> (
    let before = String.concat "\n" (List.filteri (fun i _ -> i < k) lines) in
    match (Oracles.log_of_text ~path:"m.trace" before, got) with
    | _, Ok _ -> false
    | exception Failure msg -> got = Error msg
    | _, Error msg ->
      String.starts_with ~prefix:(Printf.sprintf "m.trace:%d: Trace_io: " (k + 1)) msg)
  | _ -> (
    match (outcome (Oracles.log_of_text ~path:"m.trace"), got) with
    | Ok a, Ok b -> same_log a b
    | Error a, Error b -> a = b
    | _ -> false)

let prop_text_loader_matches_oracle =
  QCheck.Test.make ~name:"text loader matches the oracle on mutated lines" ~count:1000
    (QCheck.make
       ~print:(fun (log, m) -> String.escaped (mutate_text (Oracles.text_of_log log) m))
       QCheck.Gen.(
         pair gen_wide_log
           (list_size (int_range 1 3)
              (triple (int_bound 7) (int_bound 1000) (int_bound 1000)))))
    (fun (log, mutations) ->
      loader_agrees_with_oracle (mutate_text (Trace_io.to_string log) mutations))

(* Every integer and kind spelling in every field that takes one: the
   random mutations above reach each combination only now and then. *)
let test_trace_io_spellings_match_oracle () =
  let lines =
    [| "sherlock-trace 1"; "duration 5"; "threads 2"; "volatile 3"; "e 1 0 r 5 0 A B" |]
  in
  let fields =
    [ (1, 1, int_spellings); (2, 1, int_spellings); (3, 1, int_spellings) ]
    @ List.map (fun f -> (4, f, int_spellings)) [ 1; 2; 4; 5 ]
    @ [ (4, 3, kind_spellings) ]
  in
  List.iter
    (fun (line, field, spellings) ->
      Array.iter
        (fun spelling ->
          let text =
            String.concat "\n"
              (Array.to_list
                 (Array.mapi
                    (fun i l ->
                      if i <> line then l
                      else
                        String.concat " "
                          (List.mapi
                             (fun j f -> if j = field then spelling else f)
                             (String.split_on_char ' ' l)))
                    lines))
          in
          if not (loader_agrees_with_oracle text) then
            Alcotest.failf "loader and oracle disagree on %S" text)
        spellings)
    fields

(* --- Trace_bin --- *)

let test_trace_bin_roundtrip () =
  let o1 = Opid.read ~cls:"C" "f" and o2 = Opid.enter ~cls:"N.S" "m" in
  let volatile_addrs = Hashtbl.create 2 in
  Hashtbl.replace volatile_addrs 7 ();
  Hashtbl.replace volatile_addrs 3 ();
  let log =
    Log.create
      ~events:[ ev ~target:7 10 0 o1; ev ~target:3 ~delayed_by:100 20 1 o2 ]
      ~duration:999 ~threads:3 ~volatile_addrs
  in
  let s = Trace_bin.to_string log in
  check Alcotest.string "frame starts with the magic" Trace_bin.magic
    (String.sub s 0 (String.length Trace_bin.magic));
  (* [Trace_io.of_string] must sniff the magic and route to the binary
     decoder on its own. *)
  let log' = Trace_io.of_string s in
  check Alcotest.int "duration" log.duration log'.duration;
  check Alcotest.int "threads" log.threads log'.threads;
  check Alcotest.int "volatiles" 2 (Hashtbl.length log'.volatile_addrs);
  check Alcotest.bool "volatile membership" true
    (Hashtbl.mem log'.volatile_addrs 7 && Hashtbl.mem log'.volatile_addrs 3);
  check Alcotest.int "events" (Log.length log) (Log.length log');
  Array.iter2
    (fun (a : Event.t) (b : Event.t) ->
      check Alcotest.bool "op" true (Opid.equal a.op b.op);
      check Alcotest.int "time" a.time b.time;
      check Alcotest.int "tid" a.tid b.tid;
      check Alcotest.int "target" a.target b.target;
      check Alcotest.int "delay" a.delayed_by b.delayed_by)
    log.events log'.events

let test_trace_bin_file_autodetect () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let path = Filename.temp_file "sherlock" ".btrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary log path;
      check Alcotest.bool "sniffed as binary" true
        (Trace_io.format_of_file path = Trace_io.Binary);
      let log' = Trace_io.load path in
      check Alcotest.int "events" 2 (Log.length log');
      (* Converting back to text through the same front door. *)
      Trace_io.save ~format:Trace_io.Text log' path;
      check Alcotest.bool "sniffed as text" true
        (Trace_io.format_of_file path = Trace_io.Text);
      check Alcotest.int "events after convert" 2 (Log.length (Trace_io.load path)))

let expect_positioned_binary_failure ~path ~what s =
  match Trace_bin.of_string ~path s with
  | (_ : Log.t) -> Alcotest.failf "%s parsed" what
  | exception Failure msg ->
    (* Binary errors are positioned as "<path>: byte <off>: Trace_bin: ...". *)
    let prefix = path ^ ": byte " in
    check Alcotest.bool
      (Printf.sprintf "%s: %S carries a byte offset" what msg)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

let test_trace_bin_truncation_positioned () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf; ev 90 0 wf ] in
  let s = Trace_bin.to_string log in
  (* Every proper prefix — mid-magic, mid-header, mid-op-table, mid-column,
     mid-footer — must be rejected with a byte-positioned error. *)
  for len = 0 to String.length s - 1 do
    expect_positioned_binary_failure ~path:"t.btrace"
      ~what:(Printf.sprintf "%d-byte prefix" len)
      (String.sub s 0 len)
  done

let test_trace_bin_corruption_positioned () =
  let volatile_addrs = Hashtbl.create 1 in
  Hashtbl.replace volatile_addrs 1 ();
  let log =
    Log.create
      ~events:[ ev 10 0 wf; ev ~delayed_by:3 50 1 rf; ev 90 0 wf ]
      ~duration:1_000 ~threads:2 ~volatile_addrs
  in
  let s = Trace_bin.to_string log in
  (* Flip every byte in turn: each corrupted frame must either still
     decode to some log (flips in event payloads are data, not
     structure) or fail with a byte-positioned error — never escape as
     another exception or a crash. *)
  for pos = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    let corrupted = Bytes.to_string b in
    match Trace_bin.of_string ~path:"c.btrace" corrupted with
    | (_ : Log.t) -> ()
    | exception Failure msg ->
      let prefix = "c.btrace: byte " in
      check Alcotest.bool
        (Printf.sprintf "flip at %d: %S carries a byte offset" pos msg)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  done

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace_io roundtrip on random logs" ~count:100
    (QCheck.make gen_ops_for_io)
    (fun events ->
      let log = mklog events in
      let log' = Trace_io.of_string (Trace_io.to_string log) in
      Log.length log = Log.length log'
      && Array.for_all2
           (fun (a : Event.t) (b : Event.t) ->
             Opid.equal a.op b.op && a.time = b.time && a.tid = b.tid
             && a.target = b.target)
           log.events log'.events
      (* The loaded log rebuilds its indices; spot-check that they answer
         queries identically to the original's. *)
      && List.for_all
           (fun tid ->
             Log.progress_count log ~tid ~lo:0 ~hi:10_000
             = Log.progress_count log' ~tid ~lo:0 ~hi:10_000
             && List.length (Log.events_of_thread log tid)
                = List.length (Log.events_of_thread log' tid))
           [ 0; 1; 2 ])

(* Random logs with volatile-address annotations, for the cross-format
   property: both serializers must carry the whole log header, not just
   the event array. *)
let gen_log_inputs =
  QCheck.Gen.(
    let* events = gen_ops_for_io in
    let* volatiles = list_size (int_range 0 4) (int_range 1 6) in
    let* duration = int_range 0 1_000_000 in
    let* threads = int_range 0 8 in
    return (events, volatiles, duration, threads))

let prop_trace_formats_roundtrip =
  QCheck.Test.make ~name:"binary<->text<->binary preserves logs" ~count:100
    (QCheck.make gen_log_inputs)
    (fun (events, volatiles, duration, threads) ->
      let volatile_addrs = Hashtbl.create 4 in
      List.iter (fun a -> Hashtbl.replace volatile_addrs a ()) volatiles;
      let log = Log.create ~events ~duration ~threads ~volatile_addrs in
      let via format (l : Log.t) =
        Trace_io.of_string (Trace_io.to_string ~format l)
      in
      let via_bin = via Trace_io.Binary log in
      let via_text = via Trace_io.Text via_bin in
      let back = via Trace_io.Binary via_text in
      same_log log via_bin && same_log log via_text && same_log log back
      (* The binary encoding is canonical (interning in first-appearance
         order, volatile addresses sorted): re-encoding a log that made
         it through both formats is byte-identical. *)
      && Trace_io.to_string ~format:Trace_io.Binary log
         = Trace_io.to_string ~format:Trace_io.Binary back)

(* --- Reference window extraction --- *)

(* The pre-index full-scan algorithm, kept as an executable specification:
   every query the indexed [Windows.extract] answers with binary searches
   is answered here by scanning the whole event array.  Addresses are
   visited in first-seen order and same-address pairs in time order with
   one global per-static-pair cap — the same deterministic order the
   indexed implementation uses, so results are compared exactly. *)
module Naive = struct
  let add side op =
    Opid.Map.update op (function None -> Some 1 | Some n -> Some (n + 1)) side

  let side_of_span (log : Log.t) ~tid ~lo ~hi =
    Array.fold_left
      (fun acc (e : Event.t) ->
        if e.tid = tid && e.time >= lo && e.time <= hi then add acc e.op else acc)
      Opid.Map.empty log.events

  let all_kinds_are side kind =
    Opid.Map.for_all (fun (op : Opid.t) _ -> op.kind = kind) side

  (* The map as a [Windows.Side.t], one occurrence at a time. *)
  let to_side m =
    Opid.Map.fold
      (fun op n side ->
        let rec go side k =
          if k = 0 then side else go (Windows.Side.add_one op side) (k - 1)
        in
        go side n)
      m Windows.Side.empty

  let frame_spans (log : Log.t) =
    let stacks : (int, (Opid.t * int) list ref) Hashtbl.t = Hashtbl.create 8 in
    let spans : (int, (Opid.t * int * int) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let slot tbl tid =
      match Hashtbl.find_opt tbl tid with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add tbl tid s;
        s
    in
    Array.iter
      (fun (e : Event.t) ->
        match e.op.kind with
        | Opid.Begin ->
          (slot stacks e.tid) := (e.op, e.time) :: !(slot stacks e.tid)
        | Opid.End ->
          let key = Opid.method_key e.op in
          let s = slot stacks e.tid in
          let rec pop acc = function
            | [] -> None
            | ((op : Opid.t), t0) :: rest when Opid.method_key op = key ->
              Some ((op, t0), List.rev_append acc rest)
            | frame :: rest -> pop (frame :: acc) rest
          in
          (match pop [] !s with
          | Some ((op, t0), rest) ->
            s := rest;
            (slot spans e.tid) := (op, t0, e.time) :: !(slot spans e.tid)
          | None -> ())
        | Opid.Read | Opid.Write -> ())
      log.events;
    Hashtbl.iter
      (fun tid s ->
        List.iter
          (fun (op, t0) ->
            (slot spans tid) := (op, t0, max_int) :: !(slot spans tid))
          !s)
      stacks;
    spans

  let progressed (log : Log.t) ~tid ~lo ~hi =
    Array.exists
      (fun (e : Event.t) ->
        e.tid = tid && e.time > lo && e.time < hi && e.op.kind <> Opid.Read)
      log.events

  let add_open_frames log spans side ~tid ~lo =
    match Hashtbl.find_opt spans tid with
    | None -> side
    | Some frames ->
      List.fold_left
        (fun acc (op, t0, t1) ->
          if t1 >= lo && t0 < lo && not (progressed log ~tid ~lo:t0 ~hi:lo)
          then add acc op
          else acc)
        side !frames

  let first_delay (log : Log.t) ~tid ~lo ~hi =
    Array.fold_left
      (fun acc (e : Event.t) ->
        match acc with
        | Some _ -> acc
        | None ->
          if e.tid = tid && e.delayed_by > 0 && e.time >= lo && e.time <= hi
          then Some e
          else None)
      None log.events

  let extract ~near ~cap ~refine (log : Log.t) =
    let spans = frame_spans log in
    let windows = ref [] in
    let races = ref [] in
    let pair_counts : (Opid.t * Opid.t, int) Hashtbl.t = Hashtbl.create 64 in
    let consider (a : Event.t) (b : Event.t) =
      let acq_side ~lo ~hi =
        add_open_frames log spans
          (side_of_span log ~tid:b.tid ~lo ~hi)
          ~tid:b.tid ~lo
      in
      let rel = ref (side_of_span log ~tid:a.tid ~lo:a.time ~hi:b.time) in
      let acq = ref (acq_side ~lo:a.time ~hi:b.time) in
      (if refine then
         match first_delay log ~tid:a.tid ~lo:a.time ~hi:b.time with
         | Some r ->
           let delay_start = r.time - r.delayed_by in
           let made_progress =
             Array.exists
               (fun (e : Event.t) ->
                 e.tid = b.tid
                 && e.time >= delay_start
                 && e.time < r.time
                 && e.op.kind <> Opid.Read)
               log.events
           in
           if not made_progress then acq := acq_side ~lo:r.time ~hi:b.time
           else
             rel :=
               Opid.Map.update r.op
                 (function None | Some 1 -> None | Some n -> Some (n - 1))
                 !rel
         | None -> ());
      let rel = !rel and acq = !acq in
      let field = Opid.field_key a.op in
      let rel_impossible = Opid.Map.is_empty rel || all_kinds_are rel Opid.Read in
      let acq_impossible =
        Opid.Map.is_empty acq || all_kinds_are acq Opid.Write
      in
      if rel_impossible || acq_impossible then
        races := { Windows.race_pair = (a.op, b.op); race_field = field } :: !races
      else begin
        let coord =
          {
            Windows.first_time = a.time;
            first_tid = a.tid;
            second_time = b.time;
            second_tid = b.tid;
          }
        in
        windows :=
          {
            Windows.pair = (a.op, b.op);
            field;
            rel = to_side rel;
            acq = to_side acq;
            coord;
          }
          :: !windows
      end
    in
    let addrs = ref [] in
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun (e : Event.t) ->
        if Opid.is_access e.op && not (Hashtbl.mem seen e.target) then begin
          Hashtbl.add seen e.target ();
          addrs := e.target :: !addrs
        end)
      log.events;
    List.iter
      (fun addr ->
        let accesses =
          Array.of_list
            (List.filter
               (fun (e : Event.t) -> Opid.is_access e.op && e.target = addr)
               (Array.to_list log.events))
        in
        let n = Array.length accesses in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let a = accesses.(i) and b = accesses.(j) in
            if
              b.time - a.time <= near
              && a.tid <> b.tid
              && (a.op.kind = Opid.Write || b.op.kind = Opid.Write)
            then begin
              let key = (a.op, b.op) in
              let c = Option.value ~default:0 (Hashtbl.find_opt pair_counts key) in
              if c < cap then begin
                Hashtbl.replace pair_counts key (c + 1);
                consider a b
              end
            end
          done
        done)
      (List.rev !addrs);
    (List.rev !windows, List.rev !races)
end

let side_bindings side =
  List.map (fun ((o : Opid.t), n) -> (Opid.to_string o, n)) (Windows.Side.bindings side)

let window_eq (a : Windows.t) (b : Windows.t) =
  Opid.equal (fst a.pair) (fst b.pair)
  && Opid.equal (snd a.pair) (snd b.pair)
  && a.field = b.field
  && side_bindings a.rel = side_bindings b.rel
  && side_bindings a.acq = side_bindings b.acq
  && a.coord = b.coord

let race_eq (a : Windows.race) (b : Windows.race) =
  Opid.equal (fst a.race_pair) (fst b.race_pair)
  && Opid.equal (snd a.race_pair) (snd b.race_pair)
  && a.race_field = b.race_field

(* --- Properties --- *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 2 in
       let* kind = int_range 0 3 in
       let* field = int_range 0 2 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       return (Event.make ~time ~tid ~op ~target:(field + 1) ())))

(* Like [gen_ops] but with occasional injected-delay annotations, so the
   refinement paths of both implementations are exercised. *)
let gen_ops_delayed =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 2 in
       let* kind = int_range 0 3 in
       let* field = int_range 0 2 in
       let* delayed = int_range 0 9 in
       let* delay = int_range 1 400 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       let delayed_by = if delayed = 0 then delay else 0 in
       return (Event.make ~time ~tid ~op ~target:(field + 1) ~delayed_by ())))

(* Like [gen_ops_delayed] but wide: more threads and many more
   addresses, and each static op aliases three addresses (array-element
   style), so the global per-pair caps span addresses. *)
let gen_ops_wide =
  QCheck.Gen.(
    list_size (int_range 0 150)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 3 in
       let* kind = int_range 0 3 in
       let* addr = int_range 0 11 in
       let* delayed = int_range 0 9 in
       let* delay = int_range 1 400 in
       let field = addr mod 4 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       let delayed_by = if delayed = 0 then delay else 0 in
       return (Event.make ~time ~tid ~op ~target:(addr + 1) ~delayed_by ())))

(* The generated logs with sparse ids, none of which a dense array can
   index: huge and negative tids, and addresses below -2^40 or past
   2^40.  Addresses 2k and 2k+1 become k - 2^40 and 2^40 + k, which
   share their low 40 bits, so an id table that dropped high bits would
   merge them. *)
let relabel_sparse events =
  List.map
    (fun (e : Event.t) ->
      let high = if e.target mod 2 = 0 then -(1 lsl 40) else 1 lsl 40 in
      { e with tid = (e.tid * 1_000_003) - 5; target = high + (e.target / 2) })
    events

let prop_extract_matches_reference =
  QCheck.Test.make ~name:"indexed extraction matches the naive reference"
    ~count:300
    QCheck.(pair (make gen_ops_delayed) (make gen_ops_wide))
    (fun (narrow, wide) ->
      List.for_all
        (fun events ->
          let log = mklog events in
          List.for_all
            (fun (near, cap, refine) ->
              let w1, r1 = Windows.extract ~near ~cap ~refine log in
              let w2, r2 = Naive.extract ~near ~cap ~refine log in
              List.length w1 = List.length w2
              && List.length r1 = List.length r2
              && List.for_all2 window_eq w1 w2
              && List.for_all2 race_eq r1 r2)
            (* near exercising both in- and out-of-horizon pairs; a tight
               cap exercising the bail-out; refinement on and off. *)
            [ (10_000, 15, true); (3_000, 2, true); (10_000, 15, false) ])
        [ narrow; wide; relabel_sparse narrow; relabel_sparse wide ])

(* The stress program's log: Monitor frames nested inside worker frames,
   blocked [Enter] frames, and every conflicting pair inside [near], so
   only the per-pair caps end the address scans.  Once without delays and
   once with a delay before every Monitor::Exit completes.  Without
   delays, the scan and the open-frame queries stay within a thousand
   steps each (the full 126k-event log of the same program takes 810
   and 660): once the caps are reached, an access costs no candidate
   tests and a query only its enclosing frames. *)
let test_extract_stress_matches_reference () =
  let open Sherlock_sim in
  let exit_delay (op : Opid.t) =
    if op.kind = Opid.End && op.cls = "System.Threading.Monitor" && op.member = "Exit"
    then 1_000
    else 0
  in
  let value name = Sherlock_telemetry.Metrics.(Counter.value (counter name)) in
  List.iter
    (fun (name, delay_before, delayed) ->
      let log =
        Runtime.run ~seed:42 ~instrument:(Runtime.tracing ~delay_before ())
          (Sherlock_corpus.Workload.stress ~workers:6 ~iters:150)
      in
      let near = Windows.default_near and cap = Windows.default_cap in
      check Alcotest.bool (name ^ ": delays realized") delayed
        (Array.exists (fun (e : Event.t) -> e.delayed_by > 0) log.events);
      check Alcotest.bool (name ^ ": every pair inside near") true (log.duration <= near);
      let steps0 = value "windows.scan.steps" in
      let visited0 = value "windows.open_frames.visited" in
      let w1, r1 = Windows.extract ~near ~cap ~refine:true log in
      if not delayed then begin
        check Alcotest.bool (name ^ ": scan steps") true
          (value "windows.scan.steps" - steps0 <= 1_000);
        check Alcotest.bool (name ^ ": frames visited") true
          (value "windows.open_frames.visited" - visited0 <= 1_000)
      end;
      let w2, r2 = Naive.extract ~near ~cap ~refine:true log in
      check Alcotest.bool (name ^ ": has candidates") true (w1 <> [] || r1 <> []);
      check Alcotest.int (name ^ ": windows") (List.length w2) (List.length w1);
      check Alcotest.int (name ^ ": races") (List.length r2) (List.length r1);
      check Alcotest.bool (name ^ ": same windows") true (List.for_all2 window_eq w1 w2);
      check Alcotest.bool (name ^ ": same races") true (List.for_all2 race_eq r1 r2))
    [ ("no delays", (fun _ -> 0), false); ("Monitor::Exit delayed", exit_delay, true) ]

(* --- Reference duration samples --- *)

(* Every closed frame of [Log.fold_frames] in End order, keyed by its
   rendered [Opid.method_key], except frames whose thread has a delayed
   event in (t_begin, t_end], found by a linear scan of the log. *)
let naive_samples (log : Log.t) =
  let closed, _ = Log.fold_frames log ~init:[] ~f:(fun acc f -> f :: acc) in
  List.filter_map
    (fun (f : Log.frame) ->
      let delayed =
        Array.exists
          (fun (e : Event.t) ->
            e.tid = f.tid && e.delayed_by > 0 && e.time > f.t_begin && e.time <= f.t_end)
          log.events
      in
      if delayed then None
      else Some (Opid.method_key f.op, float_of_int (f.t_end - f.t_begin)))
    (List.rev closed)

(* The reference grouped the way [Durations.samples_of_log] documents:
   keys in the order of their first sample, samples in End order. *)
let group_samples flat =
  let keys =
    List.rev
      (List.fold_left (fun ks (k, _) -> if List.mem k ks then ks else k :: ks) [] flat)
  in
  List.map
    (fun k -> (k, List.filter_map (fun (k', d) -> if k = k' then Some d else None) flat))
    keys

let same_bits a b =
  List.map Int64.bits_of_float a = List.map Int64.bits_of_float b

let same_groups groups reference =
  List.length groups = List.length reference
  && List.for_all2
       (fun (k1, d1) (k2, d2) -> k1 = k2 && same_bits (Array.to_list d1) d2)
       groups reference

(* Recording runs one after another leaves each key's samples latest
   first, as prepending every reference sample in turn does. *)
let same_table runs =
  let d = Durations.create () in
  List.iter (Durations.record_log d) runs;
  let flat = List.concat_map naive_samples runs in
  let expected key =
    List.fold_left (fun acc (k, x) -> if k = key then x :: acc else acc) [] flat
  in
  let keys = List.sort_uniq compare (List.map fst flat) in
  List.sort compare (Durations.methods d) = keys
  && List.for_all (fun k -> same_bits (Durations.samples d k) (expected k)) keys

let prop_durations_match_reference =
  QCheck.Test.make ~name:"duration samples match the naive reference" ~count:300
    QCheck.(pair (make gen_ops_delayed) (make gen_ops_wide))
    (fun (narrow, wide) ->
      let logs = List.map mklog [ narrow; wide; relabel_sparse narrow; relabel_sparse wide ] in
      List.for_all
        (fun log ->
          let reference = group_samples (naive_samples log) in
          let _, _, from_extraction = Windows.extract_with_samples log in
          same_groups (Durations.samples_of_log log) reference
          && same_groups from_extraction reference)
        logs
      && same_table logs)

(* Keys collide when names contain ':' ("frames match on key"): both
   spellings of "A::::B" land in one group, in End order. *)
let test_durations_colon_keys () =
  let odd_b = Opid.enter ~cls:"A:" ":B" and odd_e = Opid.exit ~cls:"A:" ":B" in
  let b = Opid.enter ~cls:"A" "::B" and e = Opid.exit ~cls:"A" "::B" in
  let log = mklog [ ev 10 0 odd_b; ev 25 0 e; ev 30 0 b; ev 70 0 odd_e ] in
  let samples = Durations.samples_of_log log in
  check Alcotest.(list (pair string (array (float 0.0))))
    "one group" [ ("A::::B", [| 15.0; 40.0 |]) ] samples;
  check Alcotest.bool "matches the reference" true
    (same_groups samples (group_samples (naive_samples log)) && same_table [ log; log ])

let test_synth_deterministic () =
  let a = Sherlock_trace.Synth.log ~seed:3 ~addrs:32 ~threads:4 ~events:5_000 () in
  let b = Sherlock_trace.Synth.log ~seed:3 ~addrs:32 ~threads:4 ~events:5_000 () in
  Alcotest.(check int) "same length" (Log.length a) (Log.length b);
  Alcotest.(check bool) "same events" true (a.events = b.events);
  let c = Sherlock_trace.Synth.log ~seed:4 ~addrs:32 ~threads:4 ~events:5_000 () in
  Alcotest.(check bool) "seed matters" true (a.events <> c.events)

let prop_windows_no_crash =
  QCheck.Test.make ~name:"window extraction total on random logs" ~count:200
    (QCheck.make gen_ops)
    (fun events ->
      let log = mklog events in
      let windows, races = Windows.extract log in
      List.length windows >= 0 && List.length races >= 0)

let prop_window_sides_nonempty =
  QCheck.Test.make ~name:"windows have a possible release and acquire" ~count:200
    (QCheck.make gen_ops)
    (fun events ->
      let log = mklog events in
      let windows, _ = Windows.extract log in
      List.for_all
        (fun (w : Windows.t) ->
          (not (Windows.Side.is_empty w.rel))
          && (not (Windows.Side.is_empty w.acq))
          && Windows.Side.exists (fun (o : Opid.t) _ -> o.kind <> Opid.Read) w.rel
          && Windows.Side.exists (fun (o : Opid.t) _ -> o.kind <> Opid.Write) w.acq)
        windows)

let prop_log_sorted =
  QCheck.Test.make ~name:"logs are time sorted" ~count:200 (QCheck.make gen_ops)
    (fun events ->
      let log = mklog events in
      let ok = ref true in
      Array.iteri
        (fun i (e : Event.t) ->
          if i > 0 && log.events.(i - 1).time > e.time then ok := false)
        log.events;
      !ok)

(* --- Window sides --- *)

let side_strings side =
  List.map (fun ((o : Opid.t), n) -> (Opid.to_string o, n)) (Windows.Side.bindings side)

let side_of ops =
  List.fold_left (fun s op -> Windows.Side.add_one op s) Windows.Side.empty ops

let op_b = Opid.read ~cls:"S" "b"
let op_d = Opid.read ~cls:"S" "d"

let check_side msg expected side =
  check Alcotest.(list (pair string int)) msg expected (side_strings side)

let test_side_add_one () =
  let base = side_of [ op_d; op_b; op_d ] in
  check_side "built in order" [ ("Read-S::b", 1); ("Read-S::d", 2) ] base;
  check_side "front"
    [ ("Read-S::a", 1); ("Read-S::b", 1); ("Read-S::d", 2) ]
    (Windows.Side.add_one (Opid.read ~cls:"S" "a") base);
  check_side "middle"
    [ ("Read-S::b", 1); ("Read-S::c", 1); ("Read-S::d", 2) ]
    (Windows.Side.add_one (Opid.read ~cls:"S" "c") base);
  check_side "end"
    [ ("Read-S::b", 1); ("Read-S::d", 2); ("Read-S::e", 1) ]
    (Windows.Side.add_one (Opid.read ~cls:"S" "e") base);
  check_side "existing op" [ ("Read-S::b", 1); ("Read-S::d", 3) ]
    (Windows.Side.add_one op_d base);
  check_side "into empty" [ ("Read-S::b", 1) ]
    (Windows.Side.add_one op_b Windows.Side.empty);
  check_side "base untouched" [ ("Read-S::b", 1); ("Read-S::d", 2) ] base

let test_side_remove_one () =
  let base = side_of [ op_b; op_d; op_d ] in
  check_side "n -> n-1" [ ("Read-S::b", 1); ("Read-S::d", 1) ]
    (Windows.Side.remove_one op_d base);
  check_side "1 -> removed" [ ("Read-S::d", 2) ] (Windows.Side.remove_one op_b base);
  check_side "absent op unchanged" [ ("Read-S::b", 1); ("Read-S::d", 2) ]
    (Windows.Side.remove_one (Opid.read ~cls:"S" "c") base);
  check Alcotest.bool "last one leaves it empty" true
    (Windows.Side.is_empty (Windows.Side.remove_one op_b (side_of [ op_b ])));
  check_side "base untouched" [ ("Read-S::b", 1); ("Read-S::d", 2) ] base

let test_side_queries () =
  let side = side_of [ op_d; op_b; op_d ] in
  check Alcotest.int "cardinal" 2 (Windows.Side.cardinal side);
  check Alcotest.(option int) "find count" (Some 2) (Windows.Side.find_opt op_d side);
  check Alcotest.(option int) "find absent" None
    (Windows.Side.find_opt (Opid.write ~cls:"S" "d") side);
  check Alcotest.int "fold in order" 3
    (Windows.Side.fold (fun _ n acc -> acc + n) side 0);
  check Alcotest.bool "for_all" true
    (Windows.Side.for_all (fun o _ -> o.kind = Opid.Read) side);
  (* Equal multisets built in different orders are structurally equal,
     which is what lets [Observations] key its merge on sides. *)
  check Alcotest.bool "canonical" true
    (side_of [ op_b; op_d; op_d ] = side_of [ op_d; op_d; op_b ]
     && Hashtbl.hash (side_of [ op_b; op_d; op_d ]) = Hashtbl.hash side)

(* --- Frame matching --- *)

let frames log =
  let closed, still_open = Log.fold_frames log ~init:[] ~f:(fun acc f -> f :: acc) in
  (List.rev closed, still_open)

let frame_rows =
  List.map (fun (f : Log.frame) ->
      (f.tid, (Opid.method_key f.op, (f.t_begin, f.t_end))))

let test_frames_matching () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let bi = Opid.enter ~cls:"C" "inner" and ei = Opid.exit ~cls:"C" "inner" in
  let bo = Opid.enter ~cls:"C" "open" in
  let log =
    mklog [ ev 10 0 b; ev 15 1 bo; ev 20 0 bi; ev 30 0 ei; ev 50 0 e; ev 60 1 ei ]
  in
  let closed, still_open = frames log in
  let rows = Alcotest.(list (pair int (pair string (pair int int)))) in
  check rows "closed in End order"
    [ (0, ("C::inner", (20, 30))); (0, ("C::m", (10, 50))) ]
    (frame_rows closed);
  check rows "still open, unmatched End ignored"
    [ (1, ("C::open", (15, max_int))) ]
    (frame_rows still_open)

(* [method_key] is not injective when names contain ':'; frames have
   always matched on the rendered key, so these two close each other. *)
let test_frames_match_on_key () =
  let b = Opid.enter ~cls:"A:" ":B" and e = Opid.exit ~cls:"A" "::B" in
  let closed, still_open = frames (mklog [ ev 10 0 b; ev 25 0 e ]) in
  check Alcotest.int "one closed" 1 (List.length closed);
  check Alcotest.int "none open" 0 (List.length still_open);
  check Alcotest.bool "Begin op kept" true (Opid.equal b (List.hd closed).op)

let gen_synth_spans =
  QCheck.Gen.(
    let* seed = int_range 1 1_000 in
    let* addrs = int_range 1 24 in
    let* threads = int_range 1 6 in
    let* events = int_range 0 3_000 in
    let* spans =
      list_size (int_range 1 16)
        (triple (int_range 0 (threads + 1)) (int_range 0 100) (int_range 0 100))
    in
    return (seed, addrs, threads, events, spans))

let prop_synth_sides_match_map_fold =
  QCheck.Test.make ~name:"rank-counted sides match the map fold on synth logs"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, addrs, threads, events, _) ->
         Printf.sprintf "seed %d, %d addrs, %d threads, %d events" seed addrs threads
           events)
       gen_synth_spans)
    (fun (seed, addrs, threads, events, fracs) ->
      let log = Sherlock_trace.Synth.log ~seed ~addrs ~threads ~events () in
      let at pct = log.duration * pct / 100 in
      let spans = List.map (fun (tid, a, b) -> (tid, at a, at b)) fracs in
      Oracles.side_mismatches log spans = [])

(* The side kernel's bitset at its edges.  Ranks are the log's distinct
   ops in [Opid.compare] order; a word marks 62 ranks and a summary word
   62 words (3,844 ranks), so a log of more than 3,844 distinct ops uses
   a second summary word.  Whole-thread spans, and spans around every
   event whose rank is next to the word boundary 61/62 or the summary
   boundary 3,843/3,844, must match the map fold; some span must hold
   both ranks of each boundary. *)
let test_side_bitset_edges () =
  let log = Synth.log ~seed:5 ~addrs:4096 ~threads:2 ~events:60_000 () in
  let ops =
    Array.of_list
      (List.sort_uniq Opid.compare
         (Array.to_list (Array.map (fun (e : Event.t) -> e.op) log.events)))
  in
  check Alcotest.bool "a second summary word" true (Array.length ops > 3_844 + 62);
  let boundaries = [ (61, 62); (3_843, 3_844) ] in
  let around (e : Event.t) = [ (e.tid, e.time, e.time); (e.tid, e.time - 40, e.time + 40) ] in
  let spans =
    List.init log.threads (fun tid -> (tid, 0, log.duration))
    @ List.concat_map
        (fun (r, r') ->
          Array.to_list log.events
          |> List.filter (fun (e : Event.t) -> e.op == ops.(r) || e.op == ops.(r'))
          |> List.concat_map around)
        boundaries
  in
  check
    Alcotest.(list (triple int int int))
    "sides match the map fold" [] (Oracles.side_mismatches log spans);
  let query = Windows.span_sides log in
  List.iter
    (fun (r, r') ->
      check Alcotest.bool
        (Printf.sprintf "a span holds ranks %d and %d" r r')
        true
        (List.exists
           (fun (tid, lo, hi) ->
             let s = query ~tid ~lo ~hi in
             Windows.Side.mem ops.(r) s && Windows.Side.mem ops.(r') s)
           spans))
    boundaries

(* An open frame whose [Begin] op also occurs inside the acquire span
   merges into one entry: the span's two occurrences of M-Begin plus the
   frame.  Thread 1 opens M at 5 and makes no progress before 10; inside
   [10, 20] it writes x, calls M twice and reads y.  Thread 3's write of
   y at 10 and thread 1's read at 20 make (1, 10, 20) an acquire span,
   and thread 1's x pair makes the same span a release side.  With x
   scanned first, the acquire side is built from the cached release
   side; with y first, from the fold itself. *)
let test_open_frame_merges_with_span () =
  let cls = "P.C" in
  let m = Opid.enter ~cls "M" and m_end = Opid.exit ~cls "M" in
  let x = [ ev ~target:100 10 1 (Opid.write ~cls "x") ]
  and y = [ ev ~target:200 10 3 (Opid.write ~cls "y") ] in
  List.iter
    (fun (name, first) ->
      let log =
        mklog
          ((ev 5 1 m :: first)
          @ [
              ev 15 1 m; ev 16 1 m_end; ev 17 1 m; ev 18 1 m_end;
              ev ~target:100 20 2 (Opid.read ~cls "x");
              ev ~target:200 20 1 (Opid.read ~cls "y");
              ev 30 1 m_end;
            ])
      in
      let w1, r1 = Windows.extract ~near:1_000 ~cap:15 ~refine:true log in
      let w2, r2 = Naive.extract ~near:1_000 ~cap:15 ~refine:true log in
      check Alcotest.int (name ^ ": windows") (List.length w2) (List.length w1);
      check Alcotest.bool (name ^ ": same windows") true (List.for_all2 window_eq w1 w2);
      check Alcotest.bool (name ^ ": same races") true (List.for_all2 race_eq r1 r2);
      let acq_y = (List.find (fun (w : Windows.t) -> w.field = "P.C::y") w1).acq in
      check
        Alcotest.(list (pair string int))
        (name ^ ": one M-Begin entry")
        [ ("P.C::M-Begin", 3); ("P.C::M-End", 2); ("Write-P.C::x", 1); ("Read-P.C::y", 1) ]
        (side_bindings acq_y))
    [ ("x first", x @ y); ("y first", y @ x) ]

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trace"
    [
      ( "opid",
        [
          Alcotest.test_case "identity" `Quick test_opid_identity;
          Alcotest.test_case "kinds" `Quick test_opid_kinds;
          Alcotest.test_case "system classification" `Quick test_opid_system;
          Alcotest.test_case "name validation" `Quick test_opid_name_validation;
          Alcotest.test_case "rendering" `Quick test_opid_strings;
          Alcotest.test_case "counterpart" `Quick test_opid_counterpart;
          Alcotest.test_case "interning" `Quick test_opid_interning;
          QCheck_alcotest.to_alcotest prop_opid_equal_compare_physical;
          Alcotest.test_case "interned count" `Quick test_opid_interned_count;
          Alcotest.test_case "numbering" `Quick test_opid_numbering;
        ] );
      ( "log",
        [
          Alcotest.test_case "sorting" `Quick test_log_sorting;
          Alcotest.test_case "queries" `Quick test_log_queries;
          Alcotest.test_case "empty is fresh" `Quick test_log_empty_fresh;
          Alcotest.test_case "first delay earliest" `Quick test_first_delay_earliest;
          Alcotest.test_case "first delay bounds" `Quick test_first_delay_bounds;
          Alcotest.test_case "order edge cases" `Quick test_log_order_edges;
          Alcotest.test_case "order runs counter" `Quick test_log_order_runs_counter;
          QCheck_alcotest.to_alcotest prop_log_order_matches_oracle;
          QCheck_alcotest.to_alcotest prop_builder_shifts_bounded;
        ] );
      ( "frames",
        [
          Alcotest.test_case "matching" `Quick test_frames_matching;
          Alcotest.test_case "match on rendered key" `Quick test_frames_match_on_key;
        ] );
      ( "side",
        [
          Alcotest.test_case "add_one" `Quick test_side_add_one;
          Alcotest.test_case "remove_one" `Quick test_side_remove_one;
          Alcotest.test_case "queries" `Quick test_side_queries;
        ] );
      ( "durations",
        [
          Alcotest.test_case "pairing" `Quick test_durations_pairing;
          Alcotest.test_case "nested" `Quick test_durations_nested;
          Alcotest.test_case "delayed frames skipped" `Quick
            test_durations_skip_delayed_frames;
          Alcotest.test_case "cv percentile" `Quick test_durations_cv_percentile;
          Alcotest.test_case "colon keys share a group" `Quick test_durations_colon_keys;
          QCheck_alcotest.to_alcotest prop_cv_percentiles_match_oracle;
        ] );
      ( "windows",
        [
          Alcotest.test_case "basic" `Quick test_window_basic;
          Alcotest.test_case "fold counters" `Quick test_window_fold_counters;
          Alcotest.test_case "scan and frame counters" `Quick test_window_scan_counters;
          Alcotest.test_case "spin flag scan steps" `Quick test_window_spin_flag_steps;
          Alcotest.test_case "stress log matches the naive reference" `Quick
            test_extract_stress_matches_reference;
          Alcotest.test_case "side bitset edges" `Quick test_side_bitset_edges;
          Alcotest.test_case "open frame merges with the span" `Quick
            test_open_frame_merges_with_span;
          Alcotest.test_case "near filter" `Quick test_window_near_filter;
          Alcotest.test_case "same thread" `Quick test_window_same_thread_excluded;
          Alcotest.test_case "read/read" `Quick test_window_read_read_excluded;
          Alcotest.test_case "cap" `Quick test_window_cap;
          Alcotest.test_case "race: all writes" `Quick test_window_race_all_writes;
          Alcotest.test_case "race: all reads" `Quick test_window_race_all_reads;
          Alcotest.test_case "method prevents race" `Quick test_window_method_prevents_race;
          Alcotest.test_case "open frame acquires" `Quick test_window_open_frame_acquire;
          Alcotest.test_case "progressed frame excluded" `Quick
            test_window_progressed_frame_excluded;
          Alcotest.test_case "open frame behind closed ones" `Quick
            test_window_open_frame_behind_closed;
          Alcotest.test_case "occurrence counts" `Quick test_window_occurrence_counts;
          Alcotest.test_case "refinement: propagated" `Quick test_refinement_propagated;
          Alcotest.test_case "refinement: not propagated" `Quick
            test_refinement_not_propagated;
          Alcotest.test_case "refinement off" `Quick test_refinement_off;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "file save/load" `Quick test_trace_io_file;
          Alcotest.test_case "canonical text" `Quick test_trace_io_canonical;
          Alcotest.test_case "bad magic" `Quick test_trace_io_bad_magic;
          Alcotest.test_case "malformed line position" `Quick
            test_trace_io_malformed_line_position;
          Alcotest.test_case "rejects spaces" `Quick test_trace_io_rejects_spaces;
          Alcotest.test_case "shares ops" `Quick test_trace_io_shares_ops;
          Alcotest.test_case "names apart in the last byte" `Quick test_trace_io_close_names;
          Alcotest.test_case "member ends the string" `Quick
            test_trace_io_member_ends_string;
          Alcotest.test_case "failed save keeps the file" `Quick
            test_trace_io_failed_save_keeps_file;
          QCheck_alcotest.to_alcotest prop_text_codec_matches_oracle;
          QCheck_alcotest.to_alcotest prop_text_loader_matches_oracle;
          Alcotest.test_case "spellings match the oracle" `Quick
            test_trace_io_spellings_match_oracle;
        ] );
      ( "trace_bin",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_bin_roundtrip;
          Alcotest.test_case "file autodetect" `Quick test_trace_bin_file_autodetect;
          Alcotest.test_case "truncation positioned" `Quick
            test_trace_bin_truncation_positioned;
          Alcotest.test_case "corruption positioned" `Quick
            test_trace_bin_corruption_positioned;
        ] );
      ( "parallel_extract",
        [
          Alcotest.test_case "synth deterministic" `Quick
            test_synth_deterministic;
        ] );
      ( "properties",
        qcheck
          [ prop_windows_no_crash; prop_window_sides_nonempty; prop_log_sorted;
            prop_trace_io_roundtrip; prop_trace_formats_roundtrip;
            prop_extract_matches_reference; prop_durations_match_reference;
            prop_synth_sides_match_map_fold ] );
    ]
