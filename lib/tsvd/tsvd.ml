open Sherlock_trace
open Sherlock_core
open Sherlock_sim

type pair = {
  first : Opid.t;
  second : Opid.t;
}

type outcome = {
  candidate_pairs : pair list;
  tsvd_hb : pair list;
  sherlock_hb : pair list;
}

let unsafe_cls = "System.Collections.Generic.List"

let unsafe_classes =
  [ unsafe_cls; "System.Collections.Generic.Dictionary" ]

let is_unsafe_call (e : Event.t) =
  List.mem e.op.cls unsafe_classes && Opid.is_access e.op

let dedup pairs =
  List.sort_uniq
    (fun a b ->
      match Opid.compare a.first b.first with
      | 0 -> Opid.compare a.second b.second
      | c -> c)
    pairs

(* Conflicting unsafe-call pairs with their dynamic witnesses.  The
   per-address access index already partitions calls by target, so only
   same-address calls within the [near] horizon are ever paired (the seed
   scanned all O(n^2) unsafe-call pairs of the whole log).  Callers dedup,
   so the per-address emission order is immaterial. *)
let conflicting_events ?(near = 1_000_000) (log : Log.t) =
  let found = ref [] in
  Log.iter_addr_accesses log (fun _addr positions ->
      let calls =
        Array.of_seq
          (Seq.filter is_unsafe_call
             (Seq.map (Array.get log.events) (Array.to_seq positions)))
      in
      let n = Array.length calls in
      for i = 0 to n - 1 do
        let a = calls.(i) in
        let j = ref (i + 1) in
        while !j < n && (calls.(!j) : Event.t).time - a.time <= near do
          let b = calls.(!j) in
          if a.tid <> b.tid && (a.op.kind = Opid.Write || b.op.kind = Opid.Write)
          then found := (a, b) :: !found;
          incr j
        done
      done);
  List.rev !found

let conflicting_pairs ?near log =
  dedup
    (List.map (fun ((a : Event.t), (b : Event.t)) -> { first = a.op; second = b.op })
       (conflicting_events ?near log))

(* TSVD's probe: rerun with a delay before every instance of [victim] and
   report whether some conflicting pair on it saw the other thread stall
   for the delay. *)
let probe_delay (config : Config.t) (subject : Orchestrator.subject) victim =
  let delay_before op = if Opid.equal op victim then config.delay_us else 0 in
  let stalled_pairs = ref [] in
  List.iteri
    (fun test_index (_name, body) ->
      let seed =
        Orchestrator.test_seed ~base:config.seed ~round:97 ~test_index
      in
      let log =
        Runtime.run ~seed ~instrument:(Runtime.tracing ~delay_before ()) body
      in
      List.iter
        (fun ((a : Event.t), (b : Event.t)) ->
          (* TSVD can attribute a stall only when the second call fires
             shortly after the delayed first one completes; a distant pair
             yields no signal even if it is synchronized. *)
          if
            Opid.equal a.op victim && a.delayed_by > 0
            && b.time - a.time <= a.delayed_by + 200_000
          then begin
            (* Non-read activity of the victim's counterpart thread during
               the injected delay, via the per-thread progress index. *)
            let made_progress =
              Log.progress_count log ~tid:b.tid ~lo:(a.time - a.delayed_by)
                ~hi:(a.time - 1)
              > 0
            in
            if not made_progress then
              stalled_pairs := { first = a.op; second = b.op } :: !stalled_pairs
          end)
        (conflicting_events ~near:config.near log))
    subject.tests;
  dedup !stalled_pairs

let analyze ?(config = Config.default) (subject : Orchestrator.subject) verdicts =
  let logs = Orchestrator.run_test_logs ~config subject in
  let candidates = dedup (List.concat_map (conflicting_pairs ~near:config.near) logs) in
  let victims =
    List.sort_uniq Opid.compare (List.map (fun p -> p.first) candidates)
  in
  let tsvd_hb =
    dedup (List.concat_map (probe_delay config subject) victims)
    |> List.filter (fun p -> List.mem p candidates)
  in
  (* SherLock side: a candidate pair counts as synchronized when the
     detector under the inferred model finds no race on the unsafe
     collection ops involved. *)
  let model = Sherlock_fasttrack.Sync_model.inferred verdicts in
  let racy_fields = Hashtbl.create 8 in
  List.iter
    (fun log ->
      let report = Sherlock_fasttrack.Detector.run model log in
      List.iter
        (fun (r : Sherlock_fasttrack.Detector.race) ->
          Hashtbl.replace racy_fields r.field ())
        report.races)
    logs;
  let sherlock_hb =
    List.filter
      (fun p ->
        (not (Hashtbl.mem racy_fields (Opid.field_key p.first)))
        && not (Hashtbl.mem racy_fields (Opid.field_key p.second)))
      candidates
  in
  { candidate_pairs = candidates; tsvd_hb; sherlock_hb }
