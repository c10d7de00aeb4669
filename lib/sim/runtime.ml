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
  mutable resume : unit -> unit;
      (** what the loop runs when it picks the thread: its body at first,
          then the continuation its last suspending effect left *)
}

module Waitq = struct
  type t = {
    mutable entries : thread list;  (* FIFO, append at tail *)
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
  delay_factor : int;  (* [Fault.delay_factor fault] *)
  inline : bool;  (* no fault sites and no delay factor above 1 *)
  max_steps : int;  (* scheduler picks before [Stalled]; 0 = unlimited *)
  mutable steps : int;
  mutable inline_picks : int;  (* picks the running thread won in place *)
  mutable suspends : int;  (* effects that suspended a thread *)
  mutable threads : thread list;
  ready : thread Ready.t;
  mutable running : thread;  (* set by the loop before each resume *)
  mutable forced : int;  (* a slot already picked inline for the loop to take, or -1 *)
  mutable waitqs : Waitq.t list;  (* every queue ever blocked on, for spurious wakeups *)
  events : Log.Builder.t;
  mutable live_nondaemon : int;
  volatile_addrs : (int, unit) Hashtbl.t;
  mutable next_id : int;
  mutable next_tid : int;
  slots : (string, Obj.t) Hashtbl.t;
  mutable max_clock : int;
}

(* The effects that remain are the ones that must leave the running
   thread: [Suspend] returns it to the ready set and control to the loop
   (which takes [forced] if the thread set it); [Hang] parks the thread
   for good. *)
type _ Effect.t +=
  | Suspend : unit Effect.t
  | Hang : unit Effect.t
  | Spawn : bool * string * (unit -> unit) -> int Effect.t
  | Block : Waitq.t -> unit Effect.t
  | Slot_find : string * (unit -> Obj.t) -> Obj.t Effect.t

let outside_run name =
  failwith (name ^ ": must be called from inside Runtime.run")

(* The world of the executing run; [run] sets it and restores the
   previous one when it returns or raises. *)
let current : world option ref = ref None

let world name =
  match !current with Some w -> w | None -> outside_run name

let perform name eff =
  try Effect.perform eff with Effect.Unhandled _ -> outside_run name

let bump_clock w t dt =
  t.clock <- t.clock + dt;
  if t.clock > w.max_clock then w.max_clock <- t.clock

(* A ready thread's clock cannot change until it is picked (only the
   running thread's clock and blocked threads' clocks are ever moved), so
   the clock stored at the push is the one the pick compares. *)
let push_ready w t = Ready.push w.ready ~tid:t.tid ~clock:t.clock t

(* The scheduling point after the running thread's own step: the pick
   rule with the running thread counted as the newest push.  When it
   wins, the pick is made here and the thread runs on without
   suspending; otherwise it suspends and the loop takes the winner's
   slot without drawing again.  Fault plans, the last step before the
   watchdog and a run with no live non-daemon thread leave the pick to
   the loop, as a plain suspend. *)
let reschedule w t =
  if w.inline && w.live_nondaemon > 0 && (w.max_steps = 0 || w.steps < w.max_steps)
  then begin
    let slot = Ready.pick_running w.ready w.rng ~clock:t.clock in
    if slot < 0 then begin
      w.hooks.on_pick ~tid:t.tid ~time:t.clock ~runnable:(Ready.length w.ready + 1);
      w.steps <- w.steps + 1;
      w.inline_picks <- w.inline_picks + 1
    end
    else begin
      w.forced <- slot;
      perform "Runtime" Suspend
    end
  end
  else perform "Runtime" Suspend

let op_cost w =
  let base = 1 + Rng.int w.rng 3 in
  if w.noise > 0 && Rng.int w.rng w.noise = 0 then base + Rng.int w.rng 150 else base

(* [wt], blocked, resumed by [t]: its clock jumps to just past the
   waker's. *)
let wake_thread w t wt =
  if wt.clock < t.clock + 1 then wt.clock <- t.clock + 1;
  w.hooks.on_wake ~waker:t.tid ~tid:wt.tid ~time:wt.clock;
  push_ready w wt

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
      List.iter (wake_thread w t) entries)
    (List.rev w.waitqs)

(* Thread-side API.  Everything but spawning, blocking and slot lookup
   runs in the calling thread against the running world, and ends, where
   it is a scheduling point, in [reschedule]. *)
let traced op ~target =
  let w = world "traced" in
  let t = w.running in
  t.ops <- t.ops + 1;
  let fault = if w.fault_sites then Fault.find w.fault ~tid:t.tid ~op:t.ops else None in
  match fault with
  | Some Fault.Crash ->
    (* The thread raises at its next pick, unwinding through the
       workload's own handlers like any exception. *)
    w.hooks.on_fault ~tid:t.tid ~op:t.ops ~action:Fault.Crash ~time:t.clock;
    perform "traced" Suspend;
    raise (Fault.Injected_crash { tid = t.tid; op = t.ops })
  | Some Fault.Hang ->
    (* Blocked forever: never pushed ready, never woken (not even
       spuriously — the continuation is dropped). *)
    w.hooks.on_fault ~tid:t.tid ~op:t.ops ~action:Fault.Hang ~time:t.clock;
    t.blocked <- true;
    w.hooks.on_block ~tid:t.tid ~time:t.clock;
    perform "traced" Hang
  | (Some (Fault.Spurious_wakeup | Fault.Delay_inflation) | None) as f ->
    (match f with
    | Some Fault.Spurious_wakeup ->
      w.hooks.on_fault ~tid:t.tid ~op:t.ops ~action:Fault.Spurious_wakeup
        ~time:t.clock;
      spurious_wake_all w t
    | _ -> ());
    let delay = w.instrument.delay_before op in
    let delay =
      if delay > 0 && w.delay_factor > 1 then begin
        w.hooks.on_fault ~tid:t.tid ~op:t.ops ~action:Fault.Delay_inflation
          ~time:t.clock;
        delay * w.delay_factor
      end
      else delay
    in
    if delay > 0 then bump_clock w t delay;
    bump_clock w t (op_cost w);
    if w.instrument.trace then
      Log.Builder.add w.events
        { time = t.clock; tid = t.tid; op; target; delayed_by = delay };
    reschedule w t

let spawn ?(daemon = false) ~name body = perform "spawn" (Spawn (daemon, name, body))

let self () = (world "self").running.tid

let now () = (world "now").running.clock

let sleep n =
  let w = world "sleep" in
  let t = w.running in
  bump_clock w t (max 1 n);
  reschedule w t

let yield () = sleep 1

let rand_int n = Rng.int (world "rand_int").rng n

let cpu lo hi =
  if hi < lo then invalid_arg "Runtime.cpu: hi < lo";
  sleep (lo + rand_int (hi - lo + 1))

let fresh_id () =
  let w = world "fresh_id" in
  w.next_id <- w.next_id + 1;
  w.next_id

let register_volatile addr =
  Hashtbl.replace (world "register_volatile").volatile_addrs addr ()

let block q = perform "block" (Block q)

let wake name (q : Waitq.t) ~all =
  let w = world name in
  let t = w.running in
  let n =
    match q.entries with
    | [] -> 0
    | first :: rest when not all ->
      q.entries <- rest;
      wake_thread w t first;
      1
    | entries ->
      q.entries <- [];
      List.iter (wake_thread w t) entries;
      List.length entries
  in
  bump_clock w t 1;
  reschedule w t;
  n

let wake_one q = wake "wake_one" q ~all:false

let wake_all q = wake "wake_all" q ~all:true

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
      perform "Slot.find" (Slot_find (key, fun () -> Obj.repr (default ())))
    in
    (Obj.obj boxed : 'a)
end

let new_thread ~tid ~name ~daemon ~clock =
  { tid; name; daemon; clock; alive = true; blocked = false; ops = 0; resume = ignore }

let rec exec_thread : world -> thread -> (unit -> unit) -> unit =
 fun w t body ->
  let open Effect.Deep in
  let finish () =
    t.alive <- false;
    if not t.daemon then w.live_nondaemon <- w.live_nondaemon - 1;
    w.hooks.on_finish ~tid:t.tid ~time:t.clock
  in
  (* Allocated once per thread: suspending allocates only the
     continuation and its resume closure. *)
  let suspend : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        w.suspends <- w.suspends + 1;
        t.resume <- (fun () -> continue k ());
        push_ready w t)
  in
  match_with body ()
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Suspend -> suspend
          | Hang ->
            Some (fun (_ : (a, unit) continuation) -> w.suspends <- w.suspends + 1)
          | Block q ->
            Some
              (fun (k : (a, unit) continuation) ->
                w.suspends <- w.suspends + 1;
                t.blocked <- true;
                w.hooks.on_block ~tid:t.tid ~time:t.clock;
                if not q.registered then begin
                  q.registered <- true;
                  w.waitqs <- q :: w.waitqs
                end;
                t.resume <-
                  (fun () ->
                    t.blocked <- false;
                    continue k ());
                q.entries <- q.entries @ [ t ])
          | Spawn (daemon, name, child_body) ->
            Some
              (fun (k : (a, unit) continuation) ->
                w.suspends <- w.suspends + 1;
                let child =
                  new_thread ~tid:w.next_tid ~name ~daemon ~clock:(t.clock + 1)
                in
                child.resume <- (fun () -> exec_thread w child child_body);
                w.next_tid <- w.next_tid + 1;
                w.threads <- child :: w.threads;
                if not daemon then w.live_nondaemon <- w.live_nondaemon + 1;
                w.hooks.on_spawn ~parent:t.tid ~tid:child.tid ~name
                  ~time:child.clock;
                push_ready w child;
                bump_clock w t 1;
                t.resume <- (fun () -> continue k child.tid);
                push_ready w t)
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
  let main = new_thread ~tid:0 ~name:"main" ~daemon:false ~clock:0 in
  let fault_sites = Fault.has_sites fault and delay_factor = Fault.delay_factor fault in
  let w =
    {
      rng = Rng.create seed;
      instrument;
      hooks;
      noise;
      fault;
      fault_sites;
      delay_factor;
      inline = (not fault_sites) && delay_factor <= 1;
      max_steps;
      steps = 0;
      inline_picks = 0;
      suspends = 0;
      threads = [ main ];
      ready = Ready.create ~dummy:main;
      running = main;
      forced = -1;
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
  main.resume <- (fun () -> exec_thread w main body);
  push_ready w main;
  let minor_words0 = Gc.minor_words () in
  let rec loop () =
    if w.live_nondaemon > 0 then begin
      let runnable = Ready.length w.ready in
      if runnable > 0 then begin
        (* Smallest clock first; the random tie-break keeps equal-clock
           orderings varied across seeds.  A slot the running thread's
           inline pick already chose is taken without drawing again. *)
        let i = if w.forced >= 0 then w.forced else Ready.pick w.ready w.rng in
        w.forced <- -1;
        let tid = Ready.tid w.ready i and time = Ready.clock w.ready i in
        let t = Ready.remove w.ready i in
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
        w.running <- t;
        t.resume ();
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
    add "sim.picks.inline" w.inline_picks;
    add "sim.suspends" w.suspends;
    add "sim.minor_words" (int_of_float (Gc.minor_words () -. minor_words0))
  in
  (* A queue can outlive the run (it is created by the caller), so the
     next run must see it unregistered. *)
  let previous = !current in
  let finally () =
    current := previous;
    publish ();
    List.iter (fun (q : Waitq.t) -> q.registered <- false) w.waitqs
  in
  current := Some w;
  Fun.protect ~finally loop;
  Log.Builder.finish w.events ~duration:w.max_clock ~threads:w.next_tid
    ~volatile_addrs:w.volatile_addrs
