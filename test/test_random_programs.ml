(* End-to-end property tests over randomly generated concurrent programs.

   A small structured generator produces programs (N workers performing
   reads, writes, increments, and sleeps over F shared fields), which are
   interpreted on the simulator in two variants: fully locked (every
   access under one Monitor) and unsynchronized.  The properties tie the
   whole stack together:

   - the simulator preserves sequential consistency of the lock variant
     (final counter = number of increments, no deadlock);
   - runs are reproducible per seed;
   - FastTrack under the manual model is *silent* on the locked variant
     (no false alarms on a fully annotated program) and *reports* the
     planted conflict in the unsynchronized variant;
   - SherLock's verdicts on the locked variant respect the role property
     and include no plain heap read/write of the data fields (the lock
     explains everything). *)

open Sherlock_sim
open Sherlock_trace
open Sherlock_core
module Detector = Sherlock_fasttrack.Detector
module Sync_model = Sherlock_fasttrack.Sync_model

type action =
  | Incr of int   (* read-modify-write of field i *)
  | Put of int    (* blind write of field i *)
  | Get of int    (* read of field i *)
  | Work          (* cpu time *)

type spec = {
  nfields : int;
  workers : action list list;
}

let gen_spec =
  QCheck.Gen.(
    let* nfields = int_range 1 3 in
    let* nworkers = int_range 2 3 in
    let gen_action =
      let* k = int_range 0 3 in
      let* f = int_range 0 (nfields - 1) in
      return (match k with 0 -> Incr f | 1 -> Put f | 2 -> Get f | _ -> Work)
    in
    let* workers = list_repeat nworkers (list_size (int_range 1 6) gen_action) in
    (* Guarantee at least one real write/write conflict on field 0. *)
    let workers =
      match workers with
      | a :: b :: rest -> (Incr 0 :: a) :: (Incr 0 :: b) :: rest
      | short -> short
    in
    return { nfields; workers })

let cls = "Rand.Program"

let interpret ~locked spec () =
  let fields =
    Array.init spec.nfields (fun i ->
        Heap.cell ~cls ~field:(Printf.sprintf "f%d" i) 0)
  in
  let increments = Heap.cell ~cls ~field:"increments" 0 in
  let lock = if locked then Some (Monitor.create ()) else None in
  let guard body =
    match lock with Some m -> Monitor.with_lock m body | None -> body ()
  in
  let run_action = function
    | Incr f ->
      guard (fun () ->
          let v = Heap.read fields.(f) in
          Runtime.cpu 2 15;
          Heap.write fields.(f) (v + 1);
          Heap.poke increments (Heap.peek increments + 1))
    | Put f -> guard (fun () -> Heap.write fields.(f) 7)
    | Get f -> guard (fun () -> ignore (Heap.read fields.(f)))
    | Work -> Runtime.cpu 5 60
  in
  let threads =
    List.mapi
      (fun i actions ->
        Threadlib.create ~delegate:(cls, Printf.sprintf "Worker%d" i) (fun () ->
            List.iter run_action actions))
      spec.workers
  in
  List.iter Threadlib.start threads;
  List.iter Threadlib.join threads;
  (* With the lock, every increment is atomic: absent blind writes, the
     per-field totals add up to the increment count. *)
  let has_puts =
    List.exists
      (List.exists (function Put _ -> true | Incr _ | Get _ | Work -> false))
      spec.workers
  in
  if locked && not has_puts then begin
    let total = Array.fold_left (fun acc c -> acc + Heap.peek c) 0 fields in
    assert (total = Heap.peek increments)
  end

let run_spec ~locked ?(seed = 11) spec =
  Runtime.run ~seed ~instrument:(Runtime.tracing ()) (interpret ~locked spec)

let arb_spec = QCheck.make ~print:(fun s -> Printf.sprintf "<%d workers>" (List.length s.workers)) gen_spec

let prop_locked_runs_cleanly =
  QCheck.Test.make ~name:"locked programs run without deadlock" ~count:100 arb_spec
    (fun spec ->
      ignore (run_spec ~locked:true spec);
      true)

let prop_deterministic =
  QCheck.Test.make ~name:"same seed, same trace" ~count:60 arb_spec (fun spec ->
      let l1 = run_spec ~locked:true ~seed:3 spec in
      let l2 = run_spec ~locked:true ~seed:3 spec in
      Log.length l1 = Log.length l2
      && Array.for_all2
           (fun (a : Event.t) (b : Event.t) ->
             a.time = b.time && a.tid = b.tid && Opid.equal a.op b.op)
           l1.events l2.events)

let prop_manual_model_silent_on_locked =
  QCheck.Test.make ~name:"no manual-model races on fully locked programs" ~count:100
    arb_spec
    (fun spec ->
      let log = run_spec ~locked:true spec in
      let report = Detector.run (Sync_model.manual log) log in
      report.races = [])

let prop_detector_finds_planted_race =
  QCheck.Test.make ~name:"unsynchronized conflict is detected" ~count:100 arb_spec
    (fun spec ->
      let log = run_spec ~locked:false spec in
      let report = Detector.run (Sync_model.manual log) log in
      (* Both leading workers increment field 0 with no ordering. *)
      List.exists (fun (r : Detector.race) -> r.field = cls ^ "::f0") report.races)

let prop_inference_respects_roles =
  QCheck.Test.make ~name:"inference on random programs respects roles" ~count:25
    arb_spec
    (fun spec ->
      let subject =
        {
          Orchestrator.subject_name = "random";
          tests = [ ("t", interpret ~locked:true spec) ];
        }
      in
      let config = { Config.default with rounds = 2 } in
      let result = Orchestrator.infer ~config subject in
      List.for_all
        (fun (v : Verdict.t) ->
          match (v.op.kind, v.role) with
          | (Opid.Read | Opid.Begin), Verdict.Acquire -> true
          | (Opid.Write | Opid.End), Verdict.Release -> true
          | _ -> false)
        result.final)

let prop_tables_match_oracles =
  QCheck.Test.make
    ~name:"occurrence and CV-rank tables match oracles on random programs"
    ~count:25 arb_spec
    (fun spec ->
      let subject =
        {
          Orchestrator.subject_name = "random";
          tests = [ ("t", interpret ~locked:true spec) ];
        }
      in
      let result = Orchestrator.infer ~config:Config.default subject in
      fst (Oracles.table_mismatches result.observations) = [])

let prop_windows_total_on_real_traces =
  QCheck.Test.make ~name:"window extraction sides are explicable on real traces"
    ~count:60 arb_spec
    (fun spec ->
      let log = run_spec ~locked:true spec in
      let windows, _ = Windows.extract log in
      List.for_all
        (fun (w : Windows.t) ->
          Windows.Side.exists (fun (o : Opid.t) _ -> o.kind <> Opid.Read) w.rel
          && Windows.Side.exists (fun (o : Opid.t) _ -> o.kind <> Opid.Write) w.acq)
        windows)

(* Spans drawn as fractions of the run, so they land on real events;
   [lo > hi] and unknown thread ids are in range too. *)
let arb_spec_spans =
  QCheck.(
    pair arb_spec
      (list_of_size Gen.(int_range 1 12)
         (triple (int_range 0 4) (int_range 0 100) (int_range 0 100))))

let prop_sides_match_map_fold =
  QCheck.Test.make ~name:"rank-counted sides match the map fold on real traces"
    ~count:40 arb_spec_spans
    (fun (spec, fracs) ->
      let log = run_spec ~locked:true spec in
      let at pct = log.duration * pct / 100 in
      let spans = List.map (fun (tid, a, b) -> (tid, at a, at b)) fracs in
      Oracles.side_mismatches log spans = [])

let () =
  Alcotest.run "random-programs"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_locked_runs_cleanly;
            prop_deterministic;
            prop_manual_model_silent_on_locked;
            prop_detector_finds_planted_race;
            prop_inference_respects_roles;
            prop_tables_match_oracles;
            prop_windows_total_on_real_traces;
            prop_sides_match_map_fold;
          ] );
    ]
