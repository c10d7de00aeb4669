(* Tests for the concurrency simulator: scheduler determinism, virtual
   time, blocking primitives, and the instrumentation hooks. *)

open Sherlock_sim
open Sherlock_trace

let check = Alcotest.check

let run ?(seed = 1) ?delay_before ?fault ?max_steps body =
  Runtime.run ~seed
    ~instrument:(Runtime.tracing ?delay_before ())
    ?fault ?max_steps body

let events log = Array.to_list (log : Log.t).events

(* --- Runtime basics --- *)

let test_determinism () =
  let program () =
    let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
    let t =
      Threadlib.create ~delegate:("T.C", "W") (fun () ->
          Runtime.cpu 10 50;
          Heap.write c 1)
    in
    Threadlib.start t;
    ignore (Heap.read c);
    Threadlib.join t
  in
  let l1 = run ~seed:5 program and l2 = run ~seed:5 program in
  check Alcotest.int "same length" (Log.length l1) (Log.length l2);
  List.iter2
    (fun (a : Event.t) (b : Event.t) ->
      check Alcotest.int "same time" a.time b.time;
      check Alcotest.int "same tid" a.tid b.tid;
      check Alcotest.bool "same op" true (Opid.equal a.op b.op))
    (events l1) (events l2)

let test_seed_changes_schedule () =
  let program () =
    let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
    let ts =
      List.init 3 (fun i ->
          Threadlib.create ~delegate:("T.C", Printf.sprintf "W%d" i) (fun () ->
              Runtime.cpu 5 80;
              Heap.write c 1))
    in
    List.iter Threadlib.start ts;
    List.iter Threadlib.join ts
  in
  let l1 = run ~seed:1 program and l2 = run ~seed:2 program in
  let times l = List.map (fun (e : Event.t) -> e.time) (events l) in
  check Alcotest.bool "different schedules" true (times l1 <> times l2)

let test_per_thread_monotone_time () =
  let program () =
    let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
    for _ = 1 to 20 do
      Heap.write c 1
    done
  in
  let log = run program in
  let last = Hashtbl.create 4 in
  List.iter
    (fun (e : Event.t) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt last e.tid) in
      check Alcotest.bool "monotone" true (e.time > prev);
      Hashtbl.replace last e.tid e.time)
    (events log)

let test_deadlock_detection () =
  Alcotest.check_raises "deadlock" (Runtime.Deadlock "main") (fun () ->
      ignore
        (Runtime.run (fun () ->
             let q = Runtime.Waitq.create () in
             Runtime.block q)))

let test_daemons_do_not_block_exit () =
  let log =
    Runtime.run ~instrument:(Runtime.tracing ()) (fun () ->
        ignore
          (Runtime.spawn ~daemon:true ~name:"d" (fun () ->
               while true do
                 Runtime.sleep 1000
               done));
        Runtime.sleep 50)
  in
  check Alcotest.bool "terminates" true (log.duration >= 50)

let test_sleep_advances_clock () =
  let log =
    run (fun () ->
        Runtime.sleep 5000;
        Runtime.traced (Opid.read ~cls:"T.C" "x") ~target:1)
  in
  let e = List.hd (events log) in
  check Alcotest.bool "clock past sleep" true (e.time > 5000)

let test_fresh_ids_unique () =
  ignore
    (Runtime.run (fun () ->
         let ids = List.init 100 (fun _ -> Runtime.fresh_id ()) in
         assert (List.length (List.sort_uniq compare ids) = 100);
         assert (List.for_all (fun i -> i > 0) ids)))

let outside = Failure "now: must be called from inside Runtime.run"

let test_outside_run_fails () =
  Alcotest.check_raises "outside" outside (fun () -> ignore (Runtime.now ()))

(* [run] restores the world it found, none here, on both exit paths. *)
let test_outside_after_run_fails () =
  ignore (Runtime.run (fun () -> ignore (Runtime.now ())));
  Alcotest.check_raises "after a run that returned" outside (fun () ->
      ignore (Runtime.now ()));
  (match Runtime.run (fun () -> Runtime.block (Runtime.Waitq.create ())) with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Runtime.Deadlock _ -> ());
  Alcotest.check_raises "after a run that raised Deadlock" outside (fun () ->
      ignore (Runtime.now ()))

let test_frame_emits_balanced_events () =
  let log =
    run (fun () ->
        Runtime.frame ~cls:"T.C" ~meth:"m" (fun () ->
            Runtime.frame ~cls:"T.C" ~meth:"inner" (fun () -> Runtime.cpu 5 10)))
  in
  let begins =
    List.length (List.filter (fun (e : Event.t) -> e.op.kind = Opid.Begin) (events log))
  in
  let ends =
    List.length (List.filter (fun (e : Event.t) -> e.op.kind = Opid.End) (events log))
  in
  check Alcotest.int "begins" 2 begins;
  check Alcotest.int "ends" 2 ends

let test_frame_end_on_exception () =
  let log =
    run (fun () ->
        try Runtime.frame ~cls:"T.C" ~meth:"boom" (fun () -> raise Exit)
        with Exit -> ())
  in
  let ends =
    List.filter (fun (e : Event.t) -> e.op.kind = Opid.End) (events log)
  in
  check Alcotest.int "end emitted" 1 (List.length ends)

let test_delay_injection () =
  let op = Opid.write ~cls:"T.C" "x" in
  let delay_before o = if Opid.equal o op then 10_000 else 0 in
  let log =
    run ~delay_before (fun () ->
        let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
        Heap.write c 1)
  in
  let e = List.find (fun (e : Event.t) -> Opid.equal e.op op) (events log) in
  check Alcotest.int "delayed_by recorded" 10_000 e.delayed_by;
  check Alcotest.bool "clock advanced" true (e.time > 10_000)

let test_untraced_run_is_silent () =
  let log =
    Runtime.run (fun () ->
        let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
        Heap.write c 1;
        ignore (Heap.read c))
  in
  check Alcotest.int "no events" 0 (Log.length log)

let test_volatile_registration () =
  let log =
    run (fun () -> ignore (Heap.cell ~cls:"T.C" ~field:"v" ~volatile:true 0))
  in
  check Alcotest.int "registered" 1 (Hashtbl.length log.volatile_addrs)

(* --- Heap --- *)

let test_heap_read_write () =
  ignore
    (Runtime.run (fun () ->
         let c = Heap.cell ~cls:"T.C" ~field:"x" 7 in
         assert (Heap.read c = 7);
         Heap.write c 9;
         assert (Heap.peek c = 9);
         Heap.poke c 11;
         assert (Heap.read c = 11);
         assert (Heap.addr c > 0);
         assert (Heap.cls c = "T.C" && Heap.field c = "x")))

let test_spin_until () =
  ignore
    (Runtime.run (fun () ->
         let flag = Heap.cell ~cls:"T.C" ~field:"f" false in
         let t =
           Threadlib.create ~delegate:("T.C", "Setter") (fun () ->
               Runtime.cpu 200 400;
               Heap.write flag true)
         in
         Threadlib.start t;
         Heap.spin_until flag (fun b -> b);
         assert (Heap.peek flag);
         Threadlib.join t))

(* --- Monitor --- *)

let test_monitor_mutual_exclusion () =
  ignore
    (Runtime.run (fun () ->
         let m = Monitor.create () in
         let inside = ref 0 in
         let max_inside = ref 0 in
         let worker () =
           for _ = 1 to 5 do
             Monitor.with_lock m (fun () ->
                 incr inside;
                 if !inside > !max_inside then max_inside := !inside;
                 Runtime.cpu 5 30;
                 decr inside);
             Runtime.cpu 1 10
           done
         in
         let ts =
           List.init 3 (fun i ->
               Threadlib.create ~delegate:("T.C", Printf.sprintf "W%d" i) worker)
         in
         List.iter Threadlib.start ts;
         List.iter Threadlib.join ts;
         assert (!max_inside = 1)))

let test_monitor_reentrant () =
  ignore
    (Runtime.run (fun () ->
         let m = Monitor.create () in
         Monitor.enter m;
         Monitor.enter m;
         Monitor.exit m;
         Monitor.exit m))

let test_monitor_exit_unowned () =
  (* The lock id is allocated inside the run, so match the payload shape
     rather than an exact exception value. *)
  match
    Runtime.run (fun () ->
        let m = Monitor.create () in
        Monitor.exit m)
  with
  | _ -> Alcotest.fail "expected Monitor.Not_owner"
  | exception Monitor.Not_owner { owner; caller; _ } ->
    Alcotest.(check (option int)) "owner" None owner;
    Alcotest.(check int) "caller" 0 caller

let test_monitor_exit_stranger () =
  (* A thread releasing a lock held by another gets both tids. *)
  match
    Runtime.run (fun () ->
        let m = Monitor.create () in
        let entered = Runtime.Waitq.create () in
        ignore
          (Runtime.spawn ~name:"holder" (fun () ->
               Monitor.enter m;
               ignore (Runtime.wake_one entered);
               Runtime.sleep 10_000));
        Runtime.block entered;
        Monitor.exit m)
  with
  | _ -> Alcotest.fail "expected Monitor.Not_owner"
  | exception Monitor.Not_owner { owner; caller; _ } ->
    Alcotest.(check (option int)) "owner" (Some 1) owner;
    Alcotest.(check int) "caller" 0 caller

(* --- Rwlock --- *)

let test_rwlock_readers_concurrent () =
  ignore
    (Runtime.run (fun () ->
         let rw = Rwlock.create () in
         let readers = ref 0 in
         let saw_two = ref false in
         let reader () =
           Rwlock.acquire_reader rw;
           incr readers;
           if !readers >= 2 then saw_two := true;
           Runtime.sleep 500;
           decr readers;
           Rwlock.release_reader rw
         in
         let ts =
           List.init 2 (fun i ->
               Threadlib.create ~delegate:("T.C", Printf.sprintf "R%d" i) reader)
         in
         List.iter Threadlib.start ts;
         List.iter Threadlib.join ts;
         assert !saw_two))

let test_rwlock_writer_exclusive () =
  ignore
    (Runtime.run (fun () ->
         let rw = Rwlock.create () in
         let writing = ref false in
         let violation = ref false in
         let writer () =
           Rwlock.acquire_writer rw;
           if !writing then violation := true;
           writing := true;
           Runtime.sleep 100;
           writing := false;
           Rwlock.release_writer rw
         in
         let reader () =
           Rwlock.acquire_reader rw;
           if !writing then violation := true;
           Rwlock.release_reader rw
         in
         let w = Threadlib.create ~delegate:("T.C", "W") writer in
         let r = Threadlib.create ~delegate:("T.C", "R") reader in
         Threadlib.start w;
         Threadlib.start r;
         Threadlib.join w;
         Threadlib.join r;
         assert (not !violation)))

let test_rwlock_upgrade () =
  ignore
    (Runtime.run (fun () ->
         let rw = Rwlock.create () in
         Rwlock.acquire_reader rw;
         Rwlock.upgrade_to_writer_lock rw;
         Rwlock.downgrade_from_writer_lock rw;
         Rwlock.release_reader rw))

(* --- Tasks, threads, pool --- *)

let test_task_wait () =
  ignore
    (Runtime.run (fun () ->
         let r = ref 0 in
         let t = Tasklib.create (fun () -> r := 42) in
         assert (not (Tasklib.is_completed t));
         Tasklib.start t;
         Tasklib.wait t;
         assert (Tasklib.is_completed t);
         assert (!r = 42)))

let test_task_continue_with () =
  ignore
    (Runtime.run (fun () ->
         let order = ref [] in
         let a = Tasklib.create (fun () -> order := 1 :: !order) in
         let b = Tasklib.continue_with a (fun () -> order := 2 :: !order) in
         Tasklib.start a;
         Tasklib.wait b;
         assert (!order = [ 2; 1 ])))

let test_task_continue_after_completion () =
  ignore
    (Runtime.run (fun () ->
         let a = Tasklib.run (fun () -> ()) in
         Tasklib.wait a;
         let hit = ref false in
         let b = Tasklib.continue_with a (fun () -> hit := true) in
         Tasklib.wait b;
         assert !hit))

let test_threadpool_runs_items () =
  ignore
    (Runtime.run (fun () ->
         let done_handle = Waithandle.create_manual () in
         let count = ref 0 in
         for _ = 1 to 5 do
           Threadpool.queue_user_work_item (fun () ->
               incr count;
               if !count = 5 then Waithandle.set done_handle)
         done;
         Waithandle.wait_one done_handle;
         assert (!count = 5)))

(* --- Wait handles, semaphore, dataflow --- *)

let test_manual_event_stays_signaled () =
  ignore
    (Runtime.run (fun () ->
         let h = Waithandle.create_manual () in
         Waithandle.set h;
         Waithandle.wait_one h;
         Waithandle.wait_one h (* still signaled *)))

let test_auto_event_consumes () =
  ignore
    (Runtime.run (fun () ->
         let h = Waithandle.create_auto () in
         let woken = ref 0 in
         let waiter i =
           Threadlib.create ~delegate:("T.C", Printf.sprintf "W%d" i) (fun () ->
               Waithandle.wait_one h;
               incr woken)
         in
         let t1 = waiter 1 and t2 = waiter 2 in
         Threadlib.start t1;
         Threadlib.start t2;
         Runtime.sleep 1000;
         Waithandle.set h;
         Runtime.sleep 1000;
         assert (!woken = 1);
         Waithandle.set h;
         Threadlib.join t1;
         Threadlib.join t2;
         assert (!woken = 2)))

let test_wait_all () =
  ignore
    (Runtime.run (fun () ->
         let hs = List.init 3 (fun _ -> Waithandle.create_manual ()) in
         let setter h delay =
           Threadlib.create ~delegate:("T.C", "S") (fun () ->
               Runtime.sleep delay;
               Waithandle.set h)
         in
         let ts = List.mapi (fun i h -> setter h ((i + 1) * 100)) hs in
         List.iter Threadlib.start ts;
         Waithandle.wait_all hs;
         List.iter Threadlib.join ts))

let test_semaphore_counting () =
  ignore
    (Runtime.run (fun () ->
         let s = Semaphore.create 2 in
         Semaphore.wait s;
         Semaphore.wait s;
         assert (Semaphore.count s = 0);
         Semaphore.release s;
         assert (Semaphore.count s = 1);
         Semaphore.wait s))

let test_semaphore_blocks_at_zero () =
  ignore
    (Runtime.run (fun () ->
         let s = Semaphore.create 0 in
         let t =
           Threadlib.create ~delegate:("T.C", "R") (fun () ->
               Runtime.sleep 500;
               Semaphore.release s)
         in
         Threadlib.start t;
         Semaphore.wait s;
         Threadlib.join t))

let test_dataflow_fifo () =
  ignore
    (Runtime.run (fun () ->
         let b = Dataflow.create () in
         Dataflow.post b 1;
         Dataflow.post b 2;
         Dataflow.post b 3;
         assert (Dataflow.length b = 3);
         assert (Dataflow.receive b = 1);
         assert (Dataflow.receive b = 2);
         assert (Dataflow.try_receive b = Some 3);
         assert (Dataflow.try_receive b = None)))

let test_dataflow_blocks () =
  ignore
    (Runtime.run (fun () ->
         let b = Dataflow.create () in
         let t =
           Threadlib.create ~delegate:("T.C", "P") (fun () ->
               Runtime.sleep 300;
               Dataflow.post b 9)
         in
         Threadlib.start t;
         assert (Dataflow.receive b = 9);
         Threadlib.join t))

(* --- Conc_dict, statics, finalizer, unsafe list --- *)

let test_conc_dict_once () =
  ignore
    (Runtime.run (fun () ->
         let d = Conc_dict.create () in
         let computed = ref 0 in
         let worker () =
           ignore
             (Conc_dict.get_or_add d "k" ~delegate:("T.C", "factory") (fun () ->
                  incr computed;
                  Runtime.cpu 50 150;
                  99))
         in
         let ts =
           List.init 3 (fun i ->
               Threadlib.create ~delegate:("T.C", Printf.sprintf "Q%d" i) worker)
         in
         List.iter Threadlib.start ts;
         List.iter Threadlib.join ts;
         assert (!computed = 1);
         assert (Conc_dict.find_opt d "k" = Some 99)))

let test_statics_once () =
  ignore
    (Runtime.run (fun () ->
         let runs = ref 0 in
         let s =
           Statics.declare ~cls:"T.S" (fun () ->
               incr runs;
               Runtime.cpu 100 200)
         in
         assert (not (Statics.initialized s));
         let ts =
           List.init 3 (fun i ->
               Threadlib.create ~delegate:("T.S", Printf.sprintf "U%d" i) (fun () ->
                   Statics.ensure s))
         in
         List.iter Threadlib.start ts;
         List.iter Threadlib.join ts;
         assert (!runs = 1);
         assert (Statics.initialized s)))

let test_finalizer_runs_after_collect () =
  ignore
    (Runtime.run (fun () ->
         let finalized = ref false in
         let obj = Runtime.fresh_id () in
         Finalizer.register ~cls:"T.F" ~obj (fun () -> finalized := true);
         Finalizer.collect obj;
         let deadline = snd Finalizer.gc_latency * 3 in
         let rec wait () =
           if not !finalized then
             if Runtime.now () > deadline then assert false
             else begin
               Runtime.sleep 5000;
               wait ()
             end
         in
         wait ()))

let test_finalizer_not_before_collect () =
  ignore
    (Runtime.run (fun () ->
         let finalized = ref false in
         let obj = Runtime.fresh_id () in
         Finalizer.register ~cls:"T.F" ~obj (fun () -> finalized := true);
         Runtime.sleep (snd Finalizer.gc_latency * 2);
         assert (not !finalized)))

let test_barrier_phases () =
  ignore
    (Runtime.run (fun () ->
         let b = Barrier.create 3 in
         let after = ref 0 in
         let before_ok = ref true in
         let worker i =
           Threadlib.create ~delegate:("T.B", Printf.sprintf "W%d" i) (fun () ->
               Runtime.cpu 10 (50 * (i + 1));
               if !after > 0 then before_ok := false;
               Barrier.signal_and_wait b;
               incr after)
         in
         let ts = List.init 3 worker in
         List.iter Threadlib.start ts;
         List.iter Threadlib.join ts;
         assert !before_ok;
         assert (!after = 3);
         assert (Barrier.phase b = 1)))

let test_barrier_multi_phase () =
  ignore
    (Runtime.run (fun () ->
         let b = Barrier.create 2 in
         let worker i =
           Threadlib.create ~delegate:("T.B", Printf.sprintf "W%d" i) (fun () ->
               for _ = 1 to 3 do
                 Runtime.cpu 5 40;
                 Barrier.signal_and_wait b
               done)
         in
         let ts = List.init 2 worker in
         List.iter Threadlib.start ts;
         List.iter Threadlib.join ts;
         assert (Barrier.phase b = 3)))

let test_barrier_invalid () =
  Alcotest.check_raises "zero participants"
    (Invalid_argument "Barrier.create: participants must be positive") (fun () ->
      ignore (Runtime.run (fun () -> ignore (Barrier.create 0))))

let test_unsafe_dict_ops () =
  let log =
    run (fun () ->
        let d = Unsafe_dict.create () in
        Unsafe_dict.add d "k" 1;
        assert (Unsafe_dict.try_get_value d "k" = Some 1);
        assert (Unsafe_dict.try_get_value d "x" = None);
        assert (Unsafe_dict.count d = 1))
  in
  let accesses =
    List.filter (fun (e : Event.t) -> e.op.cls = Unsafe_dict.cls) (events log)
  in
  check Alcotest.int "traced as accesses" 4 (List.length accesses)

let test_property_accessors () =
  let log =
    run (fun () ->
        let c = Heap.cell ~cls:"T.C" ~field:"Name" 0 in
        Heap.setter c 5;
        check Alcotest.int "getter value" 5 (Heap.getter c))
  in
  let ops = List.map (fun (e : Event.t) -> Opid.to_string e.op) (events log) in
  check Alcotest.bool "setter traced" true (List.mem "Write-T.C::set_Name" ops);
  check Alcotest.bool "getter traced" true (List.mem "Read-T.C::get_Name" ops)

let test_unsafe_list_ops () =
  let log =
    run (fun () ->
        let l = Unsafe_list.create () in
        Unsafe_list.add l 1;
        Unsafe_list.add l 2;
        assert (Unsafe_list.contains l 1);
        assert (Unsafe_list.count l = 2);
        assert (Unsafe_list.to_list l = [ 1; 2 ]))
  in
  let accesses =
    List.filter (fun (e : Event.t) -> e.op.cls = Unsafe_list.cls) (events log)
  in
  check Alcotest.int "traced as accesses" 4 (List.length accesses)

(* --- Fault injection & watchdog --- *)

let log_equal (a : Log.t) (b : Log.t) =
  a.duration = b.duration
  && Log.length a = Log.length b
  && List.for_all2
       (fun (x : Event.t) (y : Event.t) ->
         x.time = y.time && x.tid = y.tid && Opid.equal x.op y.op
         && x.target = y.target
         && x.delayed_by = y.delayed_by)
       (events a) (events b)

(* One worker (tid 1) doing a handful of traced heap accesses. *)
let worker_program () =
  let c = Heap.cell ~cls:"F.C" ~field:"x" 0 in
  let t =
    Threadlib.create ~delegate:("F.C", "W") (fun () ->
        for _ = 1 to 5 do
          let v = Heap.read c in
          Heap.write c (v + 1)
        done)
  in
  Threadlib.start t;
  Threadlib.join t

let test_fault_crash_raises () =
  Alcotest.check_raises "injected crash"
    (Fault.Injected_crash { tid = 1; op = 3 })
    (fun () ->
      ignore
        (run
           ~fault:(Fault.make [ { Fault.tid = 1; op = 3; action = Fault.Crash } ])
           worker_program))

let test_fault_hang_deadlocks () =
  (* Worker hangs mid-loop; the join blocks forever. *)
  match
    run ~fault:(Fault.make [ { Fault.tid = 1; op = 3; action = Fault.Hang } ])
      worker_program
  with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Runtime.Deadlock _ -> ()

let test_watchdog_stalls_livelock () =
  (* The setter hangs before the flag write; the main thread's spin loop
     makes scheduler progress forever — only the watchdog ends it. *)
  let program () =
    let flag = Heap.cell ~cls:"F.C" ~field:"flag" false in
    let t =
      Threadlib.create ~delegate:("F.C", "Setter") (fun () ->
          Runtime.cpu 100 200;
          Heap.write flag true)
    in
    Threadlib.start t;
    Heap.spin_until flag (fun b -> b)
  in
  match
    run
      ~fault:(Fault.make [ { Fault.tid = 1; op = 1; action = Fault.Hang } ])
      ~max_steps:5_000 program
  with
  | _ -> Alcotest.fail "expected Stalled"
  | exception Runtime.Stalled { steps; runnable } ->
    check Alcotest.bool "steps past limit" true (steps > 5_000);
    check Alcotest.bool "names main" true
      (String.length runnable > 0)

let test_fault_unfired_plan_is_noop () =
  (* Sites that never fire: the run must be bitwise identical to the same
     run with no plan at all (the lookup consumes no scheduler RNG). *)
  let plan =
    Fault.make
      [
        { Fault.tid = 9; op = 1; action = Fault.Crash };
        { Fault.tid = 1; op = 100_000; action = Fault.Hang };
      ]
  in
  let base = run ~seed:3 worker_program in
  let faulted = run ~seed:3 ~fault:plan worker_program in
  check Alcotest.bool "identical log" true (log_equal base faulted)

let test_fault_wakeup_deterministic () =
  (* A spurious wakeup perturbs the schedule of a blocking program, but
     the same (seed, plan) pair must replay the exact same execution. *)
  let program () =
    let m = Monitor.create () in
    let c = Heap.cell ~cls:"F.C" ~field:"x" 0 in
    let ts =
      List.init 3 (fun i ->
          Threadlib.create ~delegate:("F.C", Printf.sprintf "W%d" i) (fun () ->
              for _ = 1 to 4 do
                Monitor.with_lock m (fun () ->
                    Heap.write c (Heap.read c + 1))
              done))
    in
    List.iter Threadlib.start ts;
    List.iter Threadlib.join ts
  in
  let plan =
    Fault.make [ { Fault.tid = 2; op = 7; action = Fault.Spurious_wakeup } ]
  in
  let l1 = run ~seed:5 ~fault:plan program in
  let l2 = run ~seed:5 ~fault:plan program in
  check Alcotest.bool "identical replays" true (log_equal l1 l2)

(* A wait queue made outside the run takes part in spurious wakeups in
   every run that blocks on it, not only in the first: the spurious wake
   and the real one both reach the waiter, run after run. *)
let test_fault_wakeup_reaches_reused_queue () =
  let q = Runtime.Waitq.create () in
  let program () =
    let released = ref false in
    ignore
      (Runtime.spawn ~name:"waiter" (fun () ->
           while not !released do
             Runtime.block q
           done));
    Runtime.sleep 10;
    Heap.write (Heap.cell ~cls:"F.C" ~field:"x" 0) 1;
    Runtime.sleep 10;
    released := true;
    ignore (Runtime.wake_all q)
  in
  let plan =
    Fault.make [ { Fault.tid = 0; op = 1; action = Fault.Spurious_wakeup } ]
  in
  let wakes () =
    let n = ref 0 in
    let hooks =
      { Runtime.no_hooks with on_wake = (fun ~waker:_ ~tid:_ ~time:_ -> incr n) }
    in
    ignore (Runtime.run ~hooks ~fault:plan program);
    !n
  in
  check Alcotest.int "first run" 2 (wakes ());
  check Alcotest.int "second run" 2 (wakes ())

let test_fault_delay_inflation () =
  let delay_before _ = 100 in
  let base = run ~seed:2 ~delay_before worker_program in
  let inflated =
    run ~seed:2 ~delay_before ~fault:(Fault.make ~delay_factor:4 []) worker_program
  in
  List.iter
    (fun (e : Event.t) -> check Alcotest.int "inflated delay" 400 e.delayed_by)
    (events inflated);
  check Alcotest.bool "longer run" true
    ((inflated : Log.t).duration > (base : Log.t).duration)

let test_fault_specs_roundtrip () =
  let specs = [ "crash:tid=2,op=40"; "hang:tid=1,op=10"; "wakeup:tid=0,op=5"; "delay-factor:8" ] in
  (match Fault.of_specs specs with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    check (Alcotest.list Alcotest.string) "roundtrip" specs (Fault.to_specs plan);
    check Alcotest.int "factor" 8 (Fault.delay_factor plan);
    check Alcotest.bool "finds site" true
      (Fault.find plan ~tid:2 ~op:40 = Some Fault.Crash));
  (match Fault.of_specs [ "explode:tid=1,op=2" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind accepted");
  (match Fault.of_specs [ "crash:tid=1" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing op accepted");
  match Fault.of_specs [ "delay-factor:0" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive factor accepted"

let test_fault_randomized_deterministic () =
  let mk seed =
    Fault.randomized ~seed ~crashes:2 ~hangs:1 ~wakeups:1 ~max_tid:4 ~max_op:50 ()
  in
  check (Alcotest.list Alcotest.string) "same seed, same plan"
    (Fault.to_specs (mk 12)) (Fault.to_specs (mk 12));
  List.iter
    (fun (s : Fault.site) ->
      check Alcotest.bool "tid in range" true (s.tid >= 1 && s.tid <= 4);
      check Alcotest.bool "op in range" true (s.op >= 1 && s.op <= 50))
    (Fault.sites (mk 12))

(* QCheck: plan determinism and the no-fire identity over random seeds. *)
let prop_fault_plan_deterministic =
  QCheck.Test.make ~name:"same (seed, plan), same log" ~count:40
    QCheck.small_nat (fun seed ->
      let plan =
        Fault.randomized ~seed:(seed + 1) ~crashes:0 ~hangs:0 ~wakeups:2
          ~max_tid:3 ~max_op:30 ()
      in
      let go () = run ~seed ~fault:plan worker_program in
      log_equal (go ()) (go ()))

let prop_unfired_plan_identity =
  QCheck.Test.make ~name:"unfired plan leaves the log untouched" ~count:40
    QCheck.small_nat (fun seed ->
      (* tid 50 never exists, op 10_000 is never reached. *)
      let plan =
        Fault.make
          [
            { Fault.tid = 50; op = 3; action = Fault.Crash };
            { Fault.tid = 1; op = 10_000; action = Fault.Hang };
          ]
      in
      log_equal (run ~seed worker_program) (run ~seed ~fault:plan worker_program))

(* --- Ready set and per-run counters --- *)

(* Random push/pick sequences over at most 16 threads with clocks in
   [0, 4), so ties are common.  A step [(0, _)] picks from both sets; any
   other step makes the [n]-th not-ready tid (cyclically) ready at clock
   [n / 16 mod 4] in both.  Both sets must choose the same tid with the
   same ready count at every pick, and their generators must end on the
   same next draw. *)
let prop_ready_matches_list =
  QCheck.Test.make ~name:"ready set picks like the list" ~count:300
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 300) (pair (int_bound 2) small_nat)))
    (fun (seed, steps) ->
      let module L = Oracles.Ready_list in
      let module Rng = Sherlock_util.Rng in
      let rng = Rng.create seed and rng_list = Rng.create seed in
      let ready = Ready.create ~dummy:(-1) and list = L.create () in
      let clock_of = Array.make 16 (-1) in
      let agree (kind, n) =
        if kind = 0 then
          match L.pick list rng_list with
          | None -> Ready.length ready = 0
          | Some (tid, runnable) ->
            let count = Ready.length ready in
            let i = Ready.pick ready rng in
            let tid' = Ready.tid ready i and clock = Ready.clock ready i in
            let v = Ready.remove ready i in
            let ok =
              tid = tid' && v = tid && runnable = count && clock = clock_of.(tid)
            in
            clock_of.(tid) <- -1;
            ok
        else begin
          let free = List.filter (fun t -> clock_of.(t) < 0) (List.init 16 Fun.id) in
          if free <> [] then begin
            let tid = List.nth free (n mod List.length free) in
            let clock = n / 16 mod 4 in
            clock_of.(tid) <- clock;
            Ready.push ready ~tid ~clock tid;
            L.push list ~tid ~clock
          end;
          true
        end
      in
      List.for_all agree steps && Rng.bits64 rng = Rng.bits64 rng_list)

(* The inline pick against the list: the running thread takes part in
   each pick as the newest push.  A step [(0, n)] is an inline pick with
   the running thread at clock [n / 16 mod 4]: the list pushes it and
   picks; the ready set calls [pick_running] and, when another thread
   wins, pushes the running thread and removes the winner's slot, as the
   loop does after a [Suspend].  A step [(1, n)] makes a free tid ready
   as in the property above; [(2, _)] has the running thread leave (block
   or finish) and the loop pick its successor.  Both sides must choose
   the same tid with the same ready count, and end on the same next
   draw. *)
let prop_inline_pick_matches_list =
  QCheck.Test.make ~name:"inline pick picks like the list" ~count:300
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 300) (pair (int_bound 2) small_nat)))
    (fun (seed, steps) ->
      let module L = Oracles.Ready_list in
      let module Rng = Sherlock_util.Rng in
      let rng = Rng.create seed and rng_list = Rng.create seed in
      let ready = Ready.create ~dummy:(-1) and list = L.create () in
      (* -1: free; -2: running; otherwise the clock it was made ready at. *)
      let state = Array.make 16 (-1) in
      let running = ref 0 in
      state.(0) <- -2;
      let agree (kind, n) =
        match kind with
        | 0 when !running >= 0 ->
          let me = !running and clock = n / 16 mod 4 in
          let count = Ready.length ready in
          let slot = Ready.pick_running ready rng ~clock in
          L.push list ~tid:me ~clock;
          (match L.pick list rng_list with
          | None -> false
          | Some (tid, runnable) ->
            runnable = count + 1
            &&
            if slot < 0 then tid = me
            else begin
              let tid' = Ready.tid ready slot and clock' = Ready.clock ready slot in
              Ready.push ready ~tid:me ~clock me;
              let v = Ready.remove ready slot in
              let ok = tid = tid' && v = tid && clock' = state.(tid) in
              state.(me) <- clock;
              state.(tid) <- -2;
              running := tid;
              ok
            end)
        | 1 ->
          let free = List.filter (fun t -> state.(t) = -1) (List.init 16 Fun.id) in
          if free <> [] then begin
            let tid = List.nth free (n mod List.length free) in
            let clock = n / 16 mod 4 in
            state.(tid) <- clock;
            Ready.push ready ~tid ~clock tid;
            L.push list ~tid ~clock
          end;
          true
        | _ ->
          if !running >= 0 then state.(!running) <- -1;
          (match L.pick list rng_list with
          | None ->
            running := -1;
            Ready.length ready = 0
          | Some (tid, runnable) ->
            let count = Ready.length ready in
            let i = Ready.pick ready rng in
            let v = Ready.remove ready i in
            state.(tid) <- -2;
            running := tid;
            v = tid && runnable = count)
      in
      List.for_all agree steps && Rng.bits64 rng = Rng.bits64 rng_list)

(* The cell's op ids are created, and their names checked, by
   [Heap.cell] itself: a bad field name raises there, before any
   access. *)
let test_cell_name_checked_at_creation () =
  let outcome = ref "not run" in
  ignore
    (Runtime.run (fun () ->
         match Heap.cell ~cls:"T.C" ~field:"bad field" 0 with
         | _ -> outcome := "created"
         | exception Invalid_argument _ -> outcome := "raised"));
  check Alcotest.string "Heap.cell raises" "raised" !outcome

(* Two threads, one traced op each: picks are main's first resume, its
   resume after the spawn and after its read, and the worker's first
   resume and its resume after its write. *)
let test_sim_counters () =
  let module Tm = Sherlock_telemetry.Metrics in
  let names = [ "sim.runs"; "sim.events"; "sim.picks" ] in
  let value name = Tm.Counter.value (Tm.counter name) in
  let delta f =
    let before = List.map value names and words = value "sim.minor_words" in
    f ();
    ( List.map2 (fun name b -> value name - b) names before,
      value "sim.minor_words" - words )
  in
  let program () =
    let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
    ignore (Runtime.spawn ~name:"w" (fun () -> Heap.write c 1));
    ignore (Heap.read c)
  in
  let counts = Alcotest.(list int) in
  let traced, words = delta (fun () -> ignore (run program)) in
  check counts "traced runs/events/picks" [ 1; 2; 5 ] traced;
  check Alcotest.bool "minor words counted" true (words > 0);
  let untraced, _ = delta (fun () -> ignore (Runtime.run program)) in
  check counts "untraced runs/events/picks" [ 1; 0; 5 ] untraced;
  let deadlocked, _ =
    delta (fun () ->
        try ignore (Runtime.run (fun () -> Runtime.block (Runtime.Waitq.create ())))
        with Runtime.Deadlock _ -> ())
  in
  check counts "failed run still counted" [ 1; 0; 1 ] deadlocked

(* Where each pick is made.  A lone thread wins every pick after its
   first inline: three sleeps are three inline picks and no suspend.  In
   the two-thread program of the test above (seed 1) no pick is inline:
   the spawn suspends main, main's read loses to the worker (clock 2
   against 1), the worker's write loses to main, and the last pick
   follows main's exit. *)
let test_sim_inline_counters () =
  let module Tm = Sherlock_telemetry.Metrics in
  let names = [ "sim.picks"; "sim.picks.inline"; "sim.suspends" ] in
  let value name = Tm.Counter.value (Tm.counter name) in
  let delta f =
    let before = List.map value names in
    f ();
    List.map2 (fun name b -> value name - b) names before
  in
  let counts = Alcotest.(list int) in
  let lone () =
    for _ = 1 to 3 do
      Runtime.sleep 5
    done
  in
  check counts "lone thread picks/inline/suspends" [ 4; 3; 0 ]
    (delta (fun () -> ignore (run lone)));
  let two () =
    let c = Heap.cell ~cls:"T.C" ~field:"x" 0 in
    ignore (Runtime.spawn ~name:"w" (fun () -> Heap.write c 1));
    ignore (Heap.read c)
  in
  check counts "two threads picks/inline/suspends" [ 5; 0; 3 ]
    (delta (fun () -> ignore (run two)))

(* Two workers taking one lock in turns, with sleeps between: about
   half the picks are made inline (178 of 345 at seed 3). *)
let contended () =
  let cell = Heap.cell ~cls:"T.C" ~field:"n" 0 in
  let lock = Monitor.create () in
  let worker () =
    for _ = 1 to 20 do
      Monitor.with_lock lock (fun () -> Heap.write cell (Heap.read cell + 1));
      Runtime.cpu 1 8
    done
  in
  ignore (Runtime.spawn ~name:"w" worker);
  worker ()

(* The watchdog on the inline path: a run of [p] picks completes at
   [max_steps = p] with the same log, and at [p - 1] raises [Stalled]
   after exactly [p] picks — the pick that would pass the bound is left
   to the loop, which counts it and raises. *)
let test_stalled_at_exact_bound () =
  let picks = ref 0 in
  let hooks =
    { Runtime.no_hooks with on_pick = (fun ~tid:_ ~time:_ ~runnable:_ -> incr picks) }
  in
  let log = Runtime.run ~seed:3 ~hooks ~instrument:(Runtime.tracing ()) contended in
  let p = !picks in
  check Alcotest.bool "bounded run, same log" true
    (log_equal log (run ~seed:3 ~max_steps:p contended));
  (match run ~seed:3 ~max_steps:(p - 1) contended with
  | _ -> Alcotest.fail "expected Stalled"
  | exception Runtime.Stalled { steps; _ } -> check Alcotest.int "stalled at" p steps);
  let lone () =
    for _ = 1 to 10 do
      Runtime.sleep 1
    done
  in
  ignore (run ~max_steps:11 lone);
  match run ~max_steps:10 lone with
  | _ -> Alcotest.fail "expected Stalled"
  | exception Runtime.Stalled { steps; runnable } ->
    check Alcotest.int "lone thread stalled at" 11 steps;
    check Alcotest.string "alive" "main" runnable

(* A lock-order deadlock reached through inline picks: each thread holds
   one lock and blocks on the other, so the ready set empties. *)
let test_deadlock_after_inline_picks () =
  let module Tm = Sherlock_telemetry.Metrics in
  let inline = Tm.counter "sim.picks.inline" in
  let before = Tm.Counter.value inline in
  let program () =
    let a = Monitor.create () and b = Monitor.create () in
    let both first second () =
      Monitor.with_lock first (fun () ->
          Runtime.sleep 50;
          Monitor.with_lock second ignore)
    in
    ignore (Runtime.spawn ~name:"w" (both b a));
    both a b ()
  in
  (match run program with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Runtime.Deadlock names -> check Alcotest.string "stuck" "w, main" names);
  check Alcotest.bool "inline picks made" true (Tm.Counter.value inline > before)

let () =
  Alcotest.run "sim"
    [
      ( "runtime",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_schedule;
          Alcotest.test_case "monotone per-thread time" `Quick test_per_thread_monotone_time;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "daemons don't block exit" `Quick test_daemons_do_not_block_exit;
          Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
          Alcotest.test_case "fresh ids unique" `Quick test_fresh_ids_unique;
          Alcotest.test_case "outside run fails" `Quick test_outside_run_fails;
          Alcotest.test_case "outside run fails after a run" `Quick
            test_outside_after_run_fails;
          Alcotest.test_case "frame events balanced" `Quick test_frame_emits_balanced_events;
          Alcotest.test_case "frame end on exception" `Quick test_frame_end_on_exception;
          Alcotest.test_case "delay injection" `Quick test_delay_injection;
          Alcotest.test_case "untraced run silent" `Quick test_untraced_run_is_silent;
          Alcotest.test_case "volatile registration" `Quick test_volatile_registration;
        ] );
      ( "heap",
        [
          Alcotest.test_case "read/write/peek/poke" `Quick test_heap_read_write;
          Alcotest.test_case "spin_until" `Quick test_spin_until;
          Alcotest.test_case "name checked at creation" `Quick
            test_cell_name_checked_at_creation;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "per-run counters" `Quick test_sim_counters;
          Alcotest.test_case "inline picks and suspends" `Quick
            test_sim_inline_counters;
          Alcotest.test_case "stalled at an exact bound" `Quick
            test_stalled_at_exact_bound;
          Alcotest.test_case "deadlock after inline picks" `Quick
            test_deadlock_after_inline_picks;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_ready_matches_list; prop_inline_pick_matches_list ] );
      ( "monitor",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_monitor_mutual_exclusion;
          Alcotest.test_case "reentrant" `Quick test_monitor_reentrant;
          Alcotest.test_case "exit unowned" `Quick test_monitor_exit_unowned;
          Alcotest.test_case "exit by stranger" `Quick test_monitor_exit_stranger;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "concurrent readers" `Quick test_rwlock_readers_concurrent;
          Alcotest.test_case "exclusive writer" `Quick test_rwlock_writer_exclusive;
          Alcotest.test_case "upgrade/downgrade" `Quick test_rwlock_upgrade;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "task wait" `Quick test_task_wait;
          Alcotest.test_case "continue_with" `Quick test_task_continue_with;
          Alcotest.test_case "continue after completion" `Quick
            test_task_continue_after_completion;
          Alcotest.test_case "threadpool" `Quick test_threadpool_runs_items;
        ] );
      ( "signals",
        [
          Alcotest.test_case "manual event" `Quick test_manual_event_stays_signaled;
          Alcotest.test_case "auto event" `Quick test_auto_event_consumes;
          Alcotest.test_case "wait_all" `Quick test_wait_all;
          Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
          Alcotest.test_case "semaphore blocks" `Quick test_semaphore_blocks_at_zero;
          Alcotest.test_case "dataflow fifo" `Quick test_dataflow_fifo;
          Alcotest.test_case "dataflow blocks" `Quick test_dataflow_blocks;
        ] );
      ( "fault",
        [
          Alcotest.test_case "crash raises Injected_crash" `Quick
            test_fault_crash_raises;
          Alcotest.test_case "hang surfaces as deadlock" `Quick
            test_fault_hang_deadlocks;
          Alcotest.test_case "watchdog converts livelock" `Quick
            test_watchdog_stalls_livelock;
          Alcotest.test_case "unfired plan is a no-op" `Quick
            test_fault_unfired_plan_is_noop;
          Alcotest.test_case "wakeup replays deterministically" `Quick
            test_fault_wakeup_deterministic;
          Alcotest.test_case "wakeup reaches a reused queue" `Quick
            test_fault_wakeup_reaches_reused_queue;
          Alcotest.test_case "delay inflation" `Quick test_fault_delay_inflation;
          Alcotest.test_case "spec round-trip" `Quick test_fault_specs_roundtrip;
          Alcotest.test_case "randomized plans deterministic" `Quick
            test_fault_randomized_deterministic;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_fault_plan_deterministic; prop_unfired_plan_identity ] );
      ( "substrates",
        [
          Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
          Alcotest.test_case "barrier multi-phase" `Quick test_barrier_multi_phase;
          Alcotest.test_case "barrier invalid" `Quick test_barrier_invalid;
          Alcotest.test_case "conc_dict computes once" `Quick test_conc_dict_once;
          Alcotest.test_case "statics run once" `Quick test_statics_once;
          Alcotest.test_case "finalizer after collect" `Quick
            test_finalizer_runs_after_collect;
          Alcotest.test_case "finalizer not before collect" `Quick
            test_finalizer_not_before_collect;
          Alcotest.test_case "unsafe list" `Quick test_unsafe_list_ops;
          Alcotest.test_case "unsafe dict" `Quick test_unsafe_dict_ops;
          Alcotest.test_case "property accessors" `Quick test_property_accessors;
        ] );
    ]
