(* The snapshot ring: rolling point-in-time captures of the full metrics
   registry (counters, gauges, histogram summaries), retained in a
   bounded circular buffer with rate/delta derivation between any two
   points.  This is the live-telemetry seam: a periodic ticker (a
   systhread on the main domain, so it adds no stop-the-world GC
   participant) takes a snapshot every interval, an optional callback
   per snapshot lets the CLI rewrite an OpenMetrics file for external
   scrapers, and a SIGUSR1 request dumps on demand without stopping the
   run. *)

module Tm = Metrics

type hist_summary = Tm.Histogram.export

type point = {
  p_seq : int;
  p_ts : float;
  p_label : string;
  p_counters : (string * int) list;
  p_gauges : (string * int) list;
  p_hists : (string * hist_summary) list;
}

type ring = {
  registry : Tm.registry;
  capacity : int;
  on_snapshot : (point -> unit) option;
  mutex : Mutex.t;
      (* the slots and counters below: the ticker systhread's [take]
         against the main thread's [take] and [points] *)
  export : Mutex.t;
      (* held around [on_snapshot]: the ticker and an event-driven
         [take] may snapshot at once, and two overlapping exporter
         rewrites of one file would race on its temp file *)
  slots : point option array;
  mutable len : int;
  mutable head : int;  (* next write slot *)
  mutable seq : int;  (* total snapshots ever taken *)
  mutable busy_s : float;
      (* cumulative seconds spent inside [take] — capture plus the
         [on_snapshot] callback — the plane's direct cost *)
}

let create ?(capacity = 64) ?(registry = Tm.default) ?on_snapshot () =
  if capacity < 1 then invalid_arg "Snapshot.create: capacity must be >= 1";
  {
    registry;
    capacity;
    on_snapshot;
    mutex = Mutex.create ();
    export = Mutex.create ();
    slots = Array.make capacity None;
    len = 0;
    head = 0;
    seq = 0;
    busy_s = 0.0;
  }

let capacity r = r.capacity

let length r =
  Mutex.lock r.mutex;
  let n = r.len in
  Mutex.unlock r.mutex;
  n

let capture ~seq ~label registry =
  let name_sorted xs = List.sort (fun (a, _) (b, _) -> String.compare a b) xs in
  let p_counters =
    name_sorted
      (List.map
         (fun c -> (Tm.Counter.name c, Tm.Counter.value c))
         (Tm.counters registry))
  in
  let p_gauges =
    name_sorted
      (List.map (fun g -> (Tm.Gauge.name g, Tm.Gauge.value g)) (Tm.gauges registry))
  in
  let p_hists =
    name_sorted
      (List.map
         (fun h -> (Tm.Histogram.name h, Tm.Histogram.export h))
         (Tm.histograms registry))
  in
  { p_seq = seq; p_ts = Unix.gettimeofday (); p_label = label; p_counters;
    p_gauges; p_hists }

let take ?(label = "") r =
  let t0 = Unix.gettimeofday () in
  (* Reading the registry happens outside the ring mutex: registry
     primitives have their own synchronization, and a slow histogram
     export must not block a concurrent [points] call. *)
  Mutex.lock r.mutex;
  let seq = r.seq in
  r.seq <- seq + 1;
  Mutex.unlock r.mutex;
  let p = capture ~seq ~label r.registry in
  Mutex.lock r.mutex;
  r.slots.(r.head) <- Some p;
  r.head <- (r.head + 1) mod r.capacity;
  if r.len < r.capacity then r.len <- r.len + 1;
  Mutex.unlock r.mutex;
  (match r.on_snapshot with
  | None -> ()
  | Some f -> Mutex.protect r.export (fun () -> f p));
  Mutex.lock r.mutex;
  r.busy_s <- r.busy_s +. (Unix.gettimeofday () -. t0);
  Mutex.unlock r.mutex;
  p

let busy_seconds r =
  Mutex.lock r.mutex;
  let s = r.busy_s in
  Mutex.unlock r.mutex;
  s

let points r =
  Mutex.lock r.mutex;
  let acc = ref [] in
  (* Newest is at [head - 1]; walk back [len] slots. *)
  for k = 0 to r.len - 1 do
    let i = (r.head - 1 - k + (2 * r.capacity)) mod r.capacity in
    match r.slots.(i) with Some p -> acc := p :: !acc | None -> ()
  done;
  Mutex.unlock r.mutex;
  !acc

(* Per-counter difference newer - older, over the union of names: a
   counter born between the two snapshots delta-s from zero.  Counters
   are monotone, so deltas are non-negative whenever [older] precedes
   [newer]. *)
let counter_delta ~older ~newer =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) older.p_counters;
  let seen = Hashtbl.create 64 in
  let deltas =
    List.map
      (fun (n, v) ->
        Hashtbl.replace seen n ();
        (n, v - Option.value (Hashtbl.find_opt tbl n) ~default:0))
      newer.p_counters
  in
  (* A counter present only in [older] (registry reset in between):
     surface it as a negative delta rather than silently dropping it. *)
  let gone =
    List.filter_map
      (fun (n, v) ->
        if Hashtbl.mem seen n then None else Some (n, -v))
      older.p_counters
  in
  deltas @ gone

let rates ~older ~newer =
  let dt = newer.p_ts -. older.p_ts in
  List.map
    (fun (n, d) -> (n, if dt > 0.0 then float_of_int d /. dt else 0.0))
    (counter_delta ~older ~newer)

(* ------------------------------------------------------------------ *)
(* The installed plane: one process-wide ring the orchestrator / ticker
   / SIGUSR1 paths snapshot into, mirroring [Span.set_collector]. *)

(* Set on the main thread, read by the ticker systhread. *)
let current : ring option Atomic.t = Atomic.make None

let install r = Atomic.set current (Some r)

let uninstall () = Atomic.set current None

let installed () = Atomic.get current

let take_installed ?label () =
  match Atomic.get current with
  | None -> None
  | Some r -> Some (take ?label r)

(* ------------------------------------------------------------------ *)
(* Ticker: a single systhread (not a domain — an idle parked domain
   joins every stop-the-world minor collection, measured ~2x slowdown
   of sequential work on one core; a sleeping systhread on the main
   domain costs nothing) that snapshots the installed ring every
   interval and services SIGUSR1 dump requests.  Interval 0 disables
   periodic snapshots but keeps servicing dump requests. *)

type ticker = {
  thread : Thread.t;
  stop_flag : bool Atomic.t;  (* set by [stop_ticker], read by the ticker *)
  (* Self-pipe: stop wakes the nap instantly.  Both ends stay open
     until after the join — closing the read side from the ticker
     thread would race the stopper's wake-up write into a SIGPIPE. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

(* Started and stopped on the main thread only. *)
let ticker_state : ticker option ref = ref None

(* Set by the SIGUSR1 handler, read and cleared by the ticker systhread. *)
let dump_requested = Atomic.make false

(* Async-signal-safe by construction: the SIGUSR1 handler only flips
   this atomic, which the ticker systhread reads and clears; the ticker
   performs the actual dump, so the handler can never deadlock against a
   registry mutex the interrupted code holds. *)
let request_dump () = Atomic.set dump_requested true

let service_dump () =
  if Atomic.get dump_requested then begin
    Atomic.set dump_requested false;
    ignore (take_installed ~label:"sigusr1" ())
  end

(* Napping is a [select] on the stop pipe rather than [Thread.delay]:
   [stop_ticker] writes one byte and the nap returns immediately, so
   stopping never waits out the remainder of a sleep.  That keeps the
   orchestrator's per-inference start/stop cost at the price of a join,
   not up to 50 ms of latency per call. *)
let nap_interruptible wake_r seconds =
  match Unix.select [ wake_r ] [] [] seconds with
  | [], _, _ -> ()
  | _ -> ignore (Unix.read wake_r (Bytes.create 16) 0 16)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let ticker_loop stop_flag wake_r interval_ms () =
  let interval_s = float_of_int interval_ms /. 1000.0 in
  let nap =
    if interval_ms > 0 then Float.min interval_s 0.05 else 0.05
  in
  let last = ref (Unix.gettimeofday ()) in
  while not (Atomic.get stop_flag) do
    nap_interruptible wake_r nap;
    service_dump ();
    if (not (Atomic.get stop_flag)) && interval_ms > 0 then begin
      let now = Unix.gettimeofday () in
      if now -. !last >= interval_s then begin
        last := now;
        ignore (take_installed ~label:"tick" ())
      end
    end
  done

let stop_ticker () =
  let t = !ticker_state in
  ticker_state := None;
  match t with
  | None -> ()
  | Some { thread; stop_flag; wake_r; wake_w } ->
    Atomic.set stop_flag true;
    (try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    Thread.join thread;
    (try Unix.close wake_w with Unix.Unix_error _ -> ());
    (try Unix.close wake_r with Unix.Unix_error _ -> ())

let start_ticker ?(interval_ms = 100) () =
  stop_ticker ();
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let stop_flag = Atomic.make false in
  let thread = Thread.create (ticker_loop stop_flag wake_r interval_ms) () in
  ticker_state := Some { thread; stop_flag; wake_r; wake_w }

let install_sigusr1 () =
  (* Windows has no SIGUSR1; degrade to "no signal dumps" silently. *)
  match Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> request_dump ())) with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

(* ------------------------------------------------------------------ *)
(* Runtime gauges: process-level levels sampled at read time.  GC
   figures come from [Gc.quick_stat] (no major-heap walk).
   Installed as callbacks so producers push nothing; re-installation
   (e.g. after a registry reset) simply rebinds. *)
let install_runtime_gauges ?registry () =
  let g name f = ignore (Tm.gauge_fn ?registry name f) in
  g "gc.minor_collections" (fun () -> (Gc.quick_stat ()).Gc.minor_collections);
  g "gc.major_collections" (fun () -> (Gc.quick_stat ()).Gc.major_collections);
  g "gc.compactions" (fun () -> (Gc.quick_stat ()).Gc.compactions);
  g "gc.heap_words" (fun () -> (Gc.quick_stat ()).Gc.heap_words);
  g "gc.top_heap_words" (fun () -> (Gc.quick_stat ()).Gc.top_heap_words);
  g "gc.minor_words" (fun () -> int_of_float (Gc.minor_words ()))
