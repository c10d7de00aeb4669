open Sherlock_trace
module P = Sherlock_telemetry.Perfetto
module Schedule = Sherlock_sim.Schedule

type test_timeline = {
  test_name : string;
  log : Log.t;
  schedule : Schedule.t;
}

(* Two Perfetto tracks per simulated thread: method frames on the even
   track, the scheduler's running/blocked/delay intervals on the odd one
   right below it. *)
let frames_track tid = tid * 2

let sched_track tid = (tid * 2) + 1

let thread_meta ~pid (t : test_timeline) =
  let names =
    match t.schedule.threads with
    | [] ->
      (* No schedule recording (e.g. a log loaded from disk): fall back to
         the log's thread count. *)
      List.init t.log.threads (fun tid ->
          (tid, if tid = 0 then "main" else Printf.sprintf "thread-%d" tid))
    | threads -> threads
  in
  List.concat_map
    (fun (tid, name) ->
      [
        P.thread_name ~pid ~tid:(frames_track tid) (Printf.sprintf "t%d %s" tid name);
        P.thread_sort_index ~pid ~tid:(frames_track tid) (frames_track tid);
        P.thread_name ~pid ~tid:(sched_track tid)
          (Printf.sprintf "t%d %s (sched)" tid name);
        P.thread_sort_index ~pid ~tid:(sched_track tid) (sched_track tid);
      ])
    names

(* Method frames as matched by {!Log.fold_frames}; frames still open at the
   end of the log are closed at its duration. *)
let frame_events ~pid (t : test_timeline) =
  let emit events (f : Log.frame) ~t1 =
    P.complete ~cat:"frame" ~name:(Opid.method_key f.op) ~ts:f.t_begin
      ~dur:(t1 - f.t_begin) ~pid ~tid:(frames_track f.tid) ()
    :: events
  in
  let events, still_open =
    Log.fold_frames t.log ~init:[] ~f:(fun events f -> emit events f ~t1:f.t_end)
  in
  List.fold_left (fun events f -> emit events f ~t1:t.log.duration) events still_open

(* Delay injections realized in the trace ([delayed_by > 0]): an instant
   marker on the frame track and a slice covering the injected interval on
   the scheduler track, annotated with what the plan asked for. *)
let delay_events ~pid ~plan (t : test_timeline) =
  let planned = Perturber.delay_before plan in
  let events = ref [] in
  Log.iter
    (fun (e : Event.t) ->
      if e.delayed_by > 0 then begin
        let args =
          [
            ("op", P.Str (Opid.to_string e.op));
            ("delayed_us", P.Int e.delayed_by);
            ("planned_us", P.Int (planned e.op));
          ]
        in
        events :=
          P.instant ~cat:"delay" ~args
            ~name:("delay " ^ Opid.to_string e.op)
            ~ts:e.time ~pid ~tid:(frames_track e.tid) ()
          :: P.complete ~cat:"delay" ~args ~name:"delay-injection"
               ~ts:(e.time - e.delayed_by) ~dur:e.delayed_by ~pid
               ~tid:(sched_track e.tid) ()
          :: !events
      end)
    t.log;
  !events

(* Running/blocked alternation per thread from the scheduler recording. *)
let sched_events ~pid (t : test_timeline) =
  List.concat_map
    (fun (tid, spawn, fin) ->
      let slice name ts stop =
        P.complete ~cat:"sched" ~name ~ts ~dur:(stop - ts) ~pid
          ~tid:(sched_track tid) ()
      in
      let cur = ref spawn in
      let events = ref [] in
      List.iter
        (fun (b : Schedule.interval) ->
          if b.start > !cur then events := slice "running" !cur b.start :: !events;
          events := slice "blocked" b.start b.stop :: !events;
          if b.stop > !cur then cur := b.stop)
        (Schedule.blocked_of_thread t.schedule tid);
      if fin > !cur then events := slice "running" !cur fin :: !events;
      !events)
    t.schedule.lifetimes

(* Flow arrows between conflicting accesses: same address, different
   threads, at least one write, at most [near] apart — enumerated off the
   per-address index exactly like window extraction.  Each end also gets a
   small access slice for the arrow to bind to. *)
let flow_events ~pid ~near ~max_flows ~next_flow_id (t : test_timeline) =
  let events = ref [] in
  let emitted = ref 0 in
  Log.iter_addr_accesses t.log (fun _addr positions ->
      let event_at i = t.log.events.(positions.(i)) in
      let n = Array.length positions in
      if n > 1 && !emitted < max_flows then begin
        try
          for i = 0 to n - 1 do
            let a = event_at i in
            let j = ref (i + 1) in
            while !j < n && (event_at !j).time - a.time <= near do
              let b = event_at !j in
              if
                a.tid <> b.tid
                && (a.op.kind = Opid.Write || b.op.kind = Opid.Write)
              then begin
                let id = !next_flow_id in
                incr next_flow_id;
                incr emitted;
                let access (e : Event.t) =
                  P.complete ~cat:"access"
                    ~args:[ ("field", P.Str (Opid.field_key e.op)) ]
                    ~name:(Opid.to_string e.op) ~ts:e.time ~dur:1 ~pid
                    ~tid:(frames_track e.tid) ()
                in
                events :=
                  access a
                  :: P.flow_start ~cat:"conflict" ~name:"conflict" ~id ~ts:a.time
                       ~pid ~tid:(frames_track a.tid) ()
                  :: access b
                  :: P.flow_end ~cat:"conflict" ~name:"conflict" ~id ~ts:b.time
                       ~pid ~tid:(frames_track b.tid) ()
                  :: !events;
                if !emitted >= max_flows then raise Exit
              end;
              incr j
            done
          done
        with Exit -> ()
      end);
  !events

(* The provenance overlay: one process of per-verdict tracks, each
   holding a slice per evidence window spanning its first..second access
   (virtual time, so it lines up under the per-test processes), plus flow
   arrows from each window slice down to the access coordinates on the
   test's frame tracks.  Flow ids live in their own range so they can
   never collide with the conflict arrows of [export]. *)
let evidence_pid = 1000

let evidence_flow_id_base = 1_000_000

let evidence_flows ?(max_flows = 256) ?(test_pid = 1)
    (prov : Sherlock_provenance.Provenance.t) =
  let module Pr = Sherlock_provenance.Provenance in
  let next_id = ref evidence_flow_id_base in
  let emitted = ref 0 in
  let events = ref [] in
  let meta = ref [ P.process_name ~pid:evidence_pid "sherlock evidence" ] in
  List.iteri
    (fun vi (v : Pr.verdict_evidence) ->
      let track = vi in
      meta :=
        P.thread_name ~pid:evidence_pid ~tid:track
          (Printf.sprintf "%s %s" v.Pr.v_op v.Pr.v_role)
        :: P.thread_sort_index ~pid:evidence_pid ~tid:track track
        :: !meta;
      List.iter
        (fun (w : Pr.window_evidence) ->
          List.iter
            (fun (c : Pr.coord) ->
              if !emitted < max_flows then begin
                let t0 = min c.Pr.c_time1 c.Pr.c_time2 in
                let t1 = max c.Pr.c_time1 c.Pr.c_time2 in
                let args =
                  [
                    ("window", P.Int w.Pr.w_id);
                    ("field", P.Str w.Pr.w_field);
                    ("side", P.Str w.Pr.w_side);
                    ("round", P.Int w.Pr.w_round);
                    ("count", P.Int w.Pr.w_count);
                    ("weight", P.Int w.Pr.w_weight);
                  ]
                in
                events :=
                  P.complete ~cat:"evidence" ~args
                    ~name:(Printf.sprintf "w%d %s" w.Pr.w_id w.Pr.w_field)
                    ~ts:t0
                    ~dur:(max 1 (t1 - t0))
                    ~pid:evidence_pid ~tid:track ()
                  :: !events;
                (* One arrow per access endpoint, from the evidence slice
                   into the test timeline's frame track. *)
                List.iter
                  (fun (ts, tid) ->
                    if !emitted < max_flows then begin
                      let id = !next_id in
                      incr next_id;
                      incr emitted;
                      events :=
                        P.flow_start ~cat:"evidence" ~name:"evidence" ~id ~ts
                          ~pid:evidence_pid ~tid:track ()
                        :: P.flow_end ~cat:"evidence" ~name:"evidence" ~id ~ts
                             ~pid:test_pid ~tid:(frames_track tid) ()
                        :: !events
                    end)
                  [ (c.Pr.c_time1, c.Pr.c_tid1); (c.Pr.c_time2, c.Pr.c_tid2) ]
              end)
            w.Pr.w_coords)
        v.Pr.v_windows)
    prov.Pr.p_verdicts;
  !meta @ !events

let export ?(near = Windows.default_near) ?(max_flows = 64) ~app ~plan
    timelines =
  let next_flow_id = ref 1 in
  List.concat
    (List.mapi
       (fun i (t : test_timeline) ->
         (* pid 0 is the wall-clock span export; virtual-time processes
            start at 1. *)
         let pid = i + 1 in
         (P.process_name ~pid (Printf.sprintf "%s / %s (virtual time)" app t.test_name)
         :: thread_meta ~pid t)
         @ frame_events ~pid t @ delay_events ~pid ~plan t @ sched_events ~pid t
         @ flow_events ~pid ~near ~max_flows ~next_flow_id t)
       timelines)
