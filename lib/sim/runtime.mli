(** Deterministic cooperative concurrency runtime with virtual time.

    This is the reproduction's substitute for the .NET runtime plus
    Mono.Cecil instrumentation: simulated programs are plain OCaml
    functions that call this module for every heap access, method frame,
    spawn, sleep, and blocking operation.  A trampolined effect-handler
    scheduler interleaves threads by smallest virtual clock (with seeded
    random jitter, so different seeds explore different interleavings),
    records a {!Sherlock_trace.Log.t}, and injects Perturber delays before
    selected operations.

    Time is measured in virtual microseconds.  Every traced operation is a
    scheduling point; blocked threads make no progress until another
    thread wakes them, at which point their clock jumps to the waker's —
    exactly the behaviour the Acquisition-Time-Varies hypothesis and the
    delay-propagation check rely on.

    At each scheduling point the scheduler picks the ready thread with
    the smallest clock; among threads tied at it, it draws [Rng.int n]
    over the [n] tied ones counted newest-pushed first (see {!Ready}).  A
    unique minimum draws nothing.  The run's random stream, and with it
    the schedule, is fixed by this rule.

    Where the pick is made.  {!traced}, {!sleep}, {!yield}, {!cpu},
    {!wake_one} and {!wake_all} are scheduling points that run in the
    calling thread: after the thread's own step they apply the pick rule
    with the thread counted as the newest push.  When it wins, the pick
    is made there and the thread runs on; otherwise it suspends (one
    effect) and the loop resumes the winner without drawing again.  A run
    with a {!Fault} plan that has sites or a delay factor above 1, the
    pick that would trip [max_steps], and a run with no live non-daemon
    thread leave every such pick to the loop.  {!self}, {!now},
    {!rand_int}, {!fresh_id} and {!register_volatile} read or update the
    running world directly and are not scheduling points.  {!spawn},
    {!block} and {!Slot.find} are effects handled by the scheduler.
    Either way the schedule, the random stream and the log are those of
    the same rule applied by the loop at every point.

    Op ids are created once per call site, not per traced operation:
    {!Heap.cell} creates its cell's four ids, the fixed-name primitives
    ({!Monitor}, {!Rwlock}, ...) create theirs when the module is
    initialised, and a delegate's frame ids are created with its thread,
    task or work item.  The name check of {!Sherlock_trace.Opid}
    therefore runs when an id is created.

    All functions below except {!run} must be called from inside a running
    simulation (i.e. from the program passed to [run] or a thread it
    spawned); calling them outside raises [Failure]. *)

open Sherlock_trace

exception Deadlock of string
(** Raised by {!run} when no thread can make progress but a non-daemon
    thread is still blocked.  The payload names the stuck threads. *)

exception Stalled of {
  steps : int;  (** scheduler picks consumed when the watchdog fired *)
  runnable : string;  (** names of the threads still alive *)
}
(** Raised by {!run} when the step-limit watchdog trips: the scheduler is
    still making transitions ([steps] picks so far) but no non-daemon
    thread is finishing — livelock, converted into a structured outcome
    the way {!Deadlock} handles true deadlock. *)

type instrument = {
  trace : bool;  (** record events; off for overhead baselines *)
  delay_before : Opid.t -> int;
      (** virtual delay (us) to inject immediately before each dynamic
          instance of the operation; return 0 for none.  This is the
          Perturber's hook (paper §4.3: 100 ms before every instance of
          every currently-inferred release). *)
}

val no_instrument : instrument
(** No tracing, no delays. *)

val tracing : ?delay_before:(Opid.t -> int) -> unit -> instrument
(** Tracing on, with an optional delay policy. *)

(** Observation hooks on the scheduler's decisions, the raw material for
    schedule timelines ({!Schedule} turns them into per-thread
    running/blocked intervals).  All times are the affected thread's
    virtual clock at the decision.  When telemetry is enabled
    ([Sherlock_telemetry.Metrics.enabled]), {!run} additionally counts
    picks/blocks/wakes/spawns into the default metrics registry. *)
type hooks = {
  on_spawn : parent:int -> tid:int -> name:string -> time:int -> unit;
  on_block : tid:int -> time:int -> unit;
      (** the thread suspended on a wait queue *)
  on_wake : waker:int -> tid:int -> time:int -> unit;
      (** [tid] resumed by [waker]; [time] is its post-jump clock *)
  on_pick : tid:int -> time:int -> runnable:int -> unit;
      (** the scheduler elected [tid]; [runnable] threads were ready,
          [tid] included *)
  on_finish : tid:int -> time:int -> unit;
  on_fault : tid:int -> op:int -> action:Fault.action -> time:int -> unit;
      (** a {!Fault} plan site fired on [tid] at its [op]th traced
          operation (also fired once per inflated delay when the plan's
          delay factor exceeds 1) *)
}

val no_hooks : hooks

val run :
  ?seed:int -> ?instrument:instrument -> ?noise:int -> ?hooks:hooks ->
  ?fault:Fault.plan -> ?max_steps:int ->
  (unit -> unit) -> Log.t
(** [run body] executes [body] as the main thread and schedules all
    spawned threads to completion.  [seed] fixes the interleaving;
    [noise] scales the random scheduling jitter (default 40: roughly one
    op in 40 gets an extra 0..150 us gap).

    [fault] (default {!Fault.empty}) is consulted at every traced
    operation; the lookup consumes no scheduler randomness, so a run
    whose plan never fires is bitwise identical to the same run without
    a plan.  A firing crash site aborts the run with
    {!Fault.Injected_crash}; a hang site blocks its thread forever.

    [max_steps] (default 0 = unlimited) bounds scheduler picks; past the
    bound the run aborts with {!Stalled}.

    Every run, failed ones included, adds to six counters of the default
    metrics registry, telemetry on or off: [sim.runs] (one), [sim.events]
    (events recorded), [sim.picks] (scheduler picks), [sim.picks.inline]
    (those the running thread won in place), [sim.suspends] (effects that
    suspended a thread: a lost pick, a spawn, a block or a hang) and
    [sim.minor_words] (the [Gc.minor_words] allocated while it ran). *)

(** {1 Thread operations} *)

val spawn : ?daemon:bool -> name:string -> (unit -> unit) -> int
(** Create a thread; returns its tid.  Daemon threads do not keep the
    simulation alive (used by the thread pool and the GC). *)

val self : unit -> int

val now : unit -> int
(** Current thread's virtual clock. *)

val sleep : int -> unit
(** Advance this thread's clock by [n] us (models both blocking sleeps
    and CPU work — the scheduler cannot tell the difference). *)

val yield : unit -> unit
(** A minimal-cost scheduling point. *)

val cpu : int -> int -> unit
(** [cpu lo hi] burns a uniform random amount of virtual time in
    [\[lo, hi\]] — models variable-length computation. *)

val rand_int : int -> int
(** Deterministic per-run randomness (for workload shaping). *)

val fresh_id : unit -> int
(** Allocate a fresh address / object id, unique within the run and
    never 0. *)

(** {1 Tracing} *)

val traced : Opid.t -> target:int -> unit
(** Emit one event for the current thread (subject to the delay policy);
    this is the primitive beneath {!Heap} and {!frame}. *)

module Method : sig
  type t
  (** A method's [Begin] and [End] op ids, created together. *)

  val make : cls:string -> string -> t
  (** Raises [Invalid_argument] on a bad name (see
      {!Sherlock_trace.Opid.check_name}). *)
end

val call : Method.t -> obj:int -> (unit -> 'a) -> 'a
(** Run a method body between a traced [Begin] and [End] (the [End] is
    emitted even on exceptions).  [obj] is the parent object id, 0 for
    none. *)

val frame : cls:string -> meth:string -> ?obj:int -> (unit -> 'a) -> 'a
(** [call] with the ids created at this call: for one-off frames.  A
    frame entered repeatedly should create its {!Method.t} once. *)

val register_volatile : int -> unit
(** Mark an address volatile in the run's log metadata (consumed only by
    the manually-annotated race detector, never by SherLock). *)

(** {1 Blocking} *)

module Waitq : sig
  type t
  (** A queue of suspended threads, the building block of every
      synchronization primitive. *)

  val create : unit -> t

  val waiters : t -> int
end

val block : Waitq.t -> unit
(** Suspend the current thread on the queue. *)

val wake_one : Waitq.t -> int
(** Resume the longest-waiting thread; returns how many were woken (0 or
    1).  The resumed thread's clock advances to the waker's. *)

val wake_all : Waitq.t -> int

(** {1 Per-run state} *)

module Slot : sig
  type 'a t
  (** A typed, per-run storage cell: primitives use slots for world-scoped
      singletons (the thread pool, the GC) so that state never leaks
      between runs. *)

  val create : string -> 'a t
  (** Names must be globally unique per stored type. *)

  val find : 'a t -> default:(unit -> 'a) -> 'a
  (** The slot's value in the current run, initializing it on first use. *)
end
