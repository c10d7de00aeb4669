open Sherlock_trace
module Rng = Sherlock_util.Rng

exception Deadlock of string

exception Stalled of {
  steps : int;
  runnable : string;
}

let () =
  Printexc.register_printer (function
    | Stalled { steps; runnable } ->
      Some
        (Printf.sprintf "Runtime.Stalled(%d scheduler steps; alive: %s)" steps
           runnable)
    | _ -> None)

type instrument = {
  trace : bool;
  delay_before : Opid.t -> int;
}

let no_instrument = { trace = false; delay_before = (fun _ -> 0) }

let tracing ?(delay_before = fun _ -> 0) () = { trace = true; delay_before }

type hooks = {
  on_spawn : parent:int -> tid:int -> name:string -> time:int -> unit;
  on_block : tid:int -> time:int -> unit;
  on_wake : waker:int -> tid:int -> time:int -> unit;
  on_pick : tid:int -> time:int -> runnable:int -> unit;
  on_finish : tid:int -> time:int -> unit;
  on_fault : tid:int -> op:int -> action:Fault.action -> time:int -> unit;
}

let no_hooks =
  {
    on_spawn = (fun ~parent:_ ~tid:_ ~name:_ ~time:_ -> ());
    on_block = (fun ~tid:_ ~time:_ -> ());
    on_wake = (fun ~waker:_ ~tid:_ ~time:_ -> ());
    on_pick = (fun ~tid:_ ~time:_ ~runnable:_ -> ());
    on_finish = (fun ~tid:_ ~time:_ -> ());
    on_fault = (fun ~tid:_ ~op:_ ~action:_ ~time:_ -> ());
  }

module Tm = Sherlock_telemetry.Metrics

(* When telemetry is on, scheduling decisions additionally bump the
   process-wide counters; the counters are resolved once per [run].
   Picks are not among them: [sim.picks] counts them for every run. *)
let counting_hooks base =
  let blocks = Tm.counter "sim.sched.blocks"
  and wakes = Tm.counter "sim.sched.wakes"
  and spawns = Tm.counter "sim.sched.spawns"
  and faults = Tm.counter "sim.fault.injected" in
  {
    on_spawn =
      (fun ~parent ~tid ~name ~time ->
        Tm.Counter.incr spawns;
        base.on_spawn ~parent ~tid ~name ~time);
    on_block =
      (fun ~tid ~time ->
        Tm.Counter.incr blocks;
        base.on_block ~tid ~time);
    on_wake =
      (fun ~waker ~tid ~time ->
        Tm.Counter.incr wakes;
        base.on_wake ~waker ~tid ~time);
    on_pick = base.on_pick;
    on_finish = base.on_finish;
    on_fault =
      (fun ~tid ~op ~action ~time ->
        Tm.Counter.incr faults;
        base.on_fault ~tid ~op ~action ~time);
  }

type thread = {
  tid : int;
  name : string;
  daemon : bool;
  mutable clock : int;
  mutable alive : bool;
  mutable blocked : bool;
  mutable ops : int;  (** traced operations performed, the fault-site index *)
}

module Waitq = struct
  type t = {
    mutable entries : (thread * (unit -> unit)) list;  (* FIFO, append at tail *)
    mutable registered : bool;  (* in the running world's [waitqs] *)
  }

  let create () = { entries = []; registered = false }

  let waiters t = List.length t.entries
end

type world = {
  rng : Rng.t;
  instrument : instrument;
  hooks : hooks;
  noise : int;
  fault : Fault.plan;
  fault_sites : bool;  (* [Fault.has_sites fault], hoisted off the hot path *)
  max_steps : int;  (* scheduler picks before [Stalled]; 0 = unlimited *)
  mutable steps : int;
  mutable threads : thread list;
  ready : (unit -> unit) Ready.t;
  mutable waitqs : Waitq.t list;  (* every queue ever blocked on, for spurious wakeups *)
  events : Log.Builder.t;
  mutable live_nondaemon : int;
  volatile_addrs : (int, unit) Hashtbl.t;
  mutable next_id : int;
  mutable next_tid : int;
  slots : (string, Obj.t) Hashtbl.t;
  mutable max_clock : int;
}

type _ Effect.t +=
  | Traced : Opid.t * int -> unit Effect.t
  | Spawn : bool * string * (unit -> unit) -> int Effect.t
  | Self : int Effect.t
  | Now : int Effect.t
  | Sleep : int -> unit Effect.t
  | Block : Waitq.t -> unit Effect.t
  | Wake : Waitq.t * bool -> int Effect.t
  | Rand : int -> int Effect.t
  | Fresh : int Effect.t
  | Volatile : int -> unit Effect.t
  | Slot_find : string * (unit -> Obj.t) -> Obj.t Effect.t

let outside_run name =
  failwith (name ^ ": must be called from inside Runtime.run")

(* Thread-side API: each of these just performs an effect; the scheduler's
   handler interprets it. *)
let traced op ~target =
  try Effect.perform (Traced (op, target)) with Effect.Unhandled _ -> outside_run "traced"

let spawn ?(daemon = false) ~name body =
  try Effect.perform (Spawn (daemon, name, body)) with Effect.Unhandled _ -> outside_run "spawn"

let self () = try Effect.perform Self with Effect.Unhandled _ -> outside_run "self"

let now () = try Effect.perform Now with Effect.Unhandled _ -> outside_run "now"

let sleep n = try Effect.perform (Sleep n) with Effect.Unhandled _ -> outside_run "sleep"

let yield () = sleep 1

let rand_int n = try Effect.perform (Rand n) with Effect.Unhandled _ -> outside_run "rand_int"

let cpu lo hi =
  if hi < lo then invalid_arg "Runtime.cpu: hi < lo";
  sleep (lo + rand_int (hi - lo + 1))

let fresh_id () = try Effect.perform Fresh with Effect.Unhandled _ -> outside_run "fresh_id"

let register_volatile addr =
  try Effect.perform (Volatile addr) with Effect.Unhandled _ -> outside_run "register_volatile"

let block q = try Effect.perform (Block q) with Effect.Unhandled _ -> outside_run "block"

let wake_one q =
  try Effect.perform (Wake (q, false)) with Effect.Unhandled _ -> outside_run "wake_one"

let wake_all q =
  try Effect.perform (Wake (q, true)) with Effect.Unhandled _ -> outside_run "wake_all"

module Method = struct
  type t = {
    enter : Opid.t;
    exit : Opid.t;
  }

  let make ~cls name =
    let enter = Opid.enter ~cls name in
    { enter; exit = Opid.counterpart enter }
end

let call (m : Method.t) ~obj f =
  traced m.enter ~target:obj;
  match f () with
  | v ->
    traced m.exit ~target:obj;
    v
  | exception e ->
    traced m.exit ~target:obj;
    raise e

let frame ~cls ~meth ?(obj = 0) f = call (Method.make ~cls meth) ~obj f

module Slot = struct
  type 'a t = string

  let create name = "slot:" ^ name

  (* The default closure runs handler-side and therefore must not perform
     effects; primitives needing effectful initialization store a flag in
     the slot value and finish initialization from thread context. *)
  let find (key : 'a t) ~default =
    let boxed =
      try Effect.perform (Slot_find (key, fun () -> Obj.repr (default ())))
      with Effect.Unhandled _ -> outside_run "Slot.find"
    in
    (Obj.obj boxed : 'a)
end

let bump_clock w t dt =
  t.clock <- t.clock + dt;
  if t.clock > w.max_clock then w.max_clock <- t.clock

(* A ready thread's clock cannot change until it is picked (only the
   running thread's clock and blocked threads' clocks are ever moved), so
   the clock stored at the push is the one the pick compares. *)
let push_ready w t resume = Ready.push w.ready ~tid:t.tid ~clock:t.clock resume

let op_cost w =
  let base = 1 + Rng.int w.rng 3 in
  if w.noise > 0 && Rng.int w.rng w.noise = 0 then base + Rng.int w.rng 150 else base

(* A spurious-wakeup fault: resume every thread blocked on any wait queue
   as if it had been signalled by [t].  The primitives all re-check their
   condition in a loop, so a correct workload makes no extra progress —
   but its schedule, and any latent wakeup-assuming bug, is exercised.
   Queues are visited in registration order, so the effect is
   deterministic. *)
let spurious_wake_all w t =
  List.iter
    (fun (q : Waitq.t) ->
      let entries = q.entries in
      q.entries <- [];
      List.iter
        (fun ((wt : thread), resume) ->
          if wt.clock < t.clock + 1 then wt.clock <- t.clock + 1;
          w.hooks.on_wake ~waker:t.tid ~tid:wt.tid ~time:wt.clock;
          push_ready w wt resume)
        entries)
    (List.rev w.waitqs)

let rec exec_thread : world -> thread -> (unit -> unit) -> unit =
 fun w t body ->
  let open Effect.Deep in
  let finish () =
    t.alive <- false;
    if not t.daemon then w.live_nondaemon <- w.live_nondaemon - 1;
    w.hooks.on_finish ~tid:t.tid ~time:t.clock
  in
  match_with body ()
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Traced (op, target) ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.ops <- t.ops + 1;
                let fault =
                  if w.fault_sites then Fault.find w.fault ~tid:t.tid ~op:t.ops
                  else None
                in
                match fault with
                | Some Fault.Crash ->
                  (* The thread raises at its next pick, unwinding through
                     the workload's own handlers like any exception. *)
                  w.hooks.on_fault ~tid:t.tid ~op:t.ops ~action:Fault.Crash
                    ~time:t.clock;
                  let exn = Fault.Injected_crash { tid = t.tid; op = t.ops } in
                  push_ready w t (fun () -> discontinue k exn)
                | Some Fault.Hang ->
                  (* Blocked forever: never pushed ready, never woken (not
                     even spuriously — the continuation is dropped). *)
                  w.hooks.on_fault ~tid:t.tid ~op:t.ops ~action:Fault.Hang
                    ~time:t.clock;
                  t.blocked <- true;
                  w.hooks.on_block ~tid:t.tid ~time:t.clock
                | (Some (Fault.Spurious_wakeup | Fault.Delay_inflation) | None)
                  as f ->
                  (match f with
                  | Some Fault.Spurious_wakeup ->
                    w.hooks.on_fault ~tid:t.tid ~op:t.ops
                      ~action:Fault.Spurious_wakeup ~time:t.clock;
                    spurious_wake_all w t
                  | _ -> ());
                  let delay = w.instrument.delay_before op in
                  let factor = Fault.delay_factor w.fault in
                  let delay =
                    if delay > 0 && factor > 1 then begin
                      w.hooks.on_fault ~tid:t.tid ~op:t.ops
                        ~action:Fault.Delay_inflation ~time:t.clock;
                      delay * factor
                    end
                    else delay
                  in
                  if delay > 0 then bump_clock w t delay;
                  bump_clock w t (op_cost w);
                  if w.instrument.trace then
                    Log.Builder.add w.events
                      { time = t.clock; tid = t.tid; op; target; delayed_by = delay };
                  push_ready w t (fun () -> continue k ()))
          | Sleep n ->
            Some
              (fun (k : (a, unit) continuation) ->
                bump_clock w t (max 1 n);
                push_ready w t (fun () -> continue k ()))
          | Block q ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.blocked <- true;
                w.hooks.on_block ~tid:t.tid ~time:t.clock;
                if not q.registered then begin
                  q.registered <- true;
                  w.waitqs <- q :: w.waitqs
                end;
                q.entries <-
                  q.entries
                  @ [
                      ( t,
                        fun () ->
                          t.blocked <- false;
                          continue k () );
                    ])
          | Wake (q, all) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let wake (wt, resume) =
                  if wt.clock < t.clock + 1 then wt.clock <- t.clock + 1;
                  w.hooks.on_wake ~waker:t.tid ~tid:wt.tid ~time:wt.clock;
                  push_ready w wt resume
                in
                let n =
                  match q.entries with
                  | [] -> 0
                  | first :: rest when not all ->
                    q.entries <- rest;
                    wake first;
                    1
                  | entries ->
                    q.entries <- [];
                    List.iter wake entries;
                    List.length entries
                in
                bump_clock w t 1;
                push_ready w t (fun () -> continue k n))
          | Spawn (daemon, name, child_body) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let child =
                  {
                    tid = w.next_tid;
                    name;
                    daemon;
                    clock = t.clock + 1;
                    alive = true;
                    blocked = false;
                    ops = 0;
                  }
                in
                w.next_tid <- w.next_tid + 1;
                w.threads <- child :: w.threads;
                if not daemon then w.live_nondaemon <- w.live_nondaemon + 1;
                w.hooks.on_spawn ~parent:t.tid ~tid:child.tid ~name
                  ~time:child.clock;
                push_ready w child (fun () -> exec_thread w child child_body);
                bump_clock w t 1;
                push_ready w t (fun () -> continue k child.tid))
          | Self -> Some (fun (k : (a, unit) continuation) -> continue k t.tid)
          | Now -> Some (fun (k : (a, unit) continuation) -> continue k t.clock)
          | Rand n -> Some (fun (k : (a, unit) continuation) -> continue k (Rng.int w.rng n))
          | Fresh ->
            Some
              (fun (k : (a, unit) continuation) ->
                w.next_id <- w.next_id + 1;
                continue k w.next_id)
          | Volatile addr ->
            Some
              (fun (k : (a, unit) continuation) ->
                Hashtbl.replace w.volatile_addrs addr ();
                continue k ())
          | Slot_find (key, init) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let v =
                  match Hashtbl.find_opt w.slots key with
                  | Some v -> v
                  | None ->
                    let v = init () in
                    Hashtbl.add w.slots key v;
                    v
                in
                continue k v)
          | _ -> None);
    }

let run ?(seed = 0) ?(instrument = no_instrument) ?(noise = 40)
    ?(hooks = no_hooks) ?(fault = Fault.empty) ?(max_steps = 0) body =
  let hooks = if Tm.enabled () then counting_hooks hooks else hooks
  in
  let w =
    {
      rng = Rng.create seed;
      instrument;
      hooks;
      noise;
      fault;
      fault_sites = Fault.has_sites fault;
      max_steps;
      steps = 0;
      threads = [];
      ready = Ready.create ~dummy:ignore;
      waitqs = [];
      events = Log.Builder.create ();
      live_nondaemon = 1;
      volatile_addrs = Hashtbl.create 16;
      next_id = 0;
      next_tid = 1;
      slots = Hashtbl.create 16;
      max_clock = 0;
    }
  in
  let main =
    {
      tid = 0;
      name = "main";
      daemon = false;
      clock = 0;
      alive = true;
      blocked = false;
      ops = 0;
    }
  in
  w.threads <- [ main ];
  push_ready w main (fun () -> exec_thread w main body);
  let minor_words0 = Gc.minor_words () in
  let rec loop () =
    if w.live_nondaemon > 0 then begin
      let runnable = Ready.length w.ready in
      if runnable > 0 then begin
        (* Smallest clock first; the random tie-break keeps equal-clock
           orderings varied across seeds. *)
        let i = Ready.pick w.ready w.rng in
        let tid = Ready.tid w.ready i and time = Ready.clock w.ready i in
        let resume = Ready.remove w.ready i in
        w.hooks.on_pick ~tid ~time ~runnable;
        w.steps <- w.steps + 1;
        if w.max_steps > 0 && w.steps > w.max_steps then begin
          (* Livelock watchdog: the run is making scheduler transitions
             but no non-daemon thread is finishing — convert it into a
             structured outcome like [Deadlock]. *)
          let alive = List.filter (fun t -> t.alive) w.threads in
          let names = String.concat ", " (List.map (fun t -> t.name) alive) in
          raise (Stalled { steps = w.steps; runnable = names })
        end;
        resume ();
        loop ()
      end
      else begin
        let stuck =
          List.filter (fun t -> t.alive && t.blocked && not t.daemon) w.threads
        in
        let names = String.concat ", " (List.map (fun t -> t.name) stuck) in
        raise (Deadlock names)
      end
    end
  in
  (* Per-run totals, published once at the end of every run, failed
     ones included, whether or not telemetry is on. *)
  let publish () =
    let add name by = Tm.Counter.incr ~by (Tm.counter name) in
    add "sim.runs" 1;
    add "sim.events" (Log.Builder.length w.events);
    add "sim.picks" w.steps;
    add "sim.minor_words" (int_of_float (Gc.minor_words () -. minor_words0))
  in
  (* A queue can outlive the run (it is created by the caller), so the
     next run must see it unregistered. *)
  let finally () =
    publish ();
    List.iter (fun (q : Waitq.t) -> q.registered <- false) w.waitqs
  in
  Fun.protect ~finally loop;
  Log.Builder.finish w.events ~duration:w.max_clock ~threads:w.next_tid
    ~volatile_addrs:w.volatile_addrs
