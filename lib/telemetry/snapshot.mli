(** Rolling snapshots of the metrics registry — the live-telemetry
    plane.

    A {!ring} retains the last N {!point}s (full captures of every
    counter, gauge, and histogram summary), with {!counter_delta} and
    {!rates} deriving change between any two points.  One ring can be
    {!install}ed process-wide; the orchestrator snapshots it once per
    round (the only per-round history the process keeps), a
    {!start_ticker} systhread snapshots it on a fixed interval, and a
    SIGUSR1 handler ({!install_sigusr1}) requests an on-demand dump
    without stopping the run.  Each snapshot optionally invokes the
    ring's [on_snapshot] callback — the seam the CLI uses to atomically
    rewrite an OpenMetrics file for external scrapers (throttling the
    rewrites itself, since per-round points are not throttled). *)

type hist_summary = Metrics.Histogram.export
(** A histogram's exported summary: count, sum, min, max and the
    power-of-two buckets (see {!Metrics.Histogram}). *)

type point = {
  p_seq : int;  (** 0-based index of this snapshot since ring creation *)
  p_ts : float;  (** [Unix.gettimeofday] at capture *)
  p_label : string;  (** e.g. ["tick"], ["round 2"], ["sigusr1"] *)
  p_counters : (string * int) list;  (** name-sorted *)
  p_gauges : (string * int) list;  (** name-sorted; callbacks evaluated *)
  p_hists : (string * hist_summary) list;  (** name-sorted *)
}

type ring

val create :
  ?capacity:int ->
  ?registry:Metrics.registry ->
  ?on_snapshot:(point -> unit) ->
  unit ->
  ring
(** [capacity] (default 64) bounds retained points — older snapshots
    are evicted FIFO.  [on_snapshot] runs on the snapshotting thread
    after each {!take}, outside the ring's lock; calls on one ring never
    overlap, so a callback that rewrites a file needs no locking. *)

val capacity : ring -> int

val length : ring -> int

val take : ?label:string -> ring -> point
(** Capture every registry primitive now, append (evicting the oldest
    past capacity), run [on_snapshot], and return the point.  Safe from
    the main thread and the ticker systhread at once. *)

val points : ring -> point list
(** Retained points, oldest first. *)

val busy_seconds : ring -> float
(** Cumulative wall-clock seconds spent inside {!take} on this ring —
    registry capture plus the [on_snapshot] callback.  The plane's
    direct cost, as a share of run wall-clock when divided by it. *)

val counter_delta : older:point -> newer:point -> (string * int) list
(** Per-counter [newer - older] over the union of names (a counter born
    between the two deltas from 0; one that vanished — registry reset —
    surfaces as a negative delta).  Counters are monotone, so deltas
    are non-negative whenever [older] was taken before [newer]. *)

val rates : older:point -> newer:point -> (string * float) list
(** {!counter_delta} divided by the wall-clock seconds between the two
    points; all zero if the interval is not positive. *)

(** {1 The installed plane} *)

val install : ring -> unit
(** Make [ring] the process-wide snapshot target (ticker, SIGUSR1,
    per-round orchestrator points). *)

val uninstall : unit -> unit

val installed : unit -> ring option

val take_installed : ?label:string -> unit -> point option
(** {!take} on the installed ring; [None] when no plane is installed.
    Not throttled: the orchestrator calls it once per round. *)

(** {1 Ticker and signal dumps} *)

val start_ticker : ?interval_ms:int -> unit -> unit
(** Start (or restart) the single process-wide ticker systhread: every
    [interval_ms] (default 100) it snapshots the installed ring, and it
    services {!request_dump} requests within ~50 ms.  [interval_ms = 0]
    disables periodic snapshots but keeps servicing dump requests.  A
    systhread, not a domain: it shares the main domain, so it adds no
    stop-the-world GC participant. *)

val stop_ticker : unit -> unit
(** Stop and join the ticker; idempotent. *)

val request_dump : unit -> unit
(** Ask the ticker to snapshot the installed ring as [label "sigusr1"].
    Only flips an atomic, hence safe from a signal handler. *)

val install_sigusr1 : unit -> unit
(** Route SIGUSR1 to {!request_dump} (no-op where the signal does not
    exist). *)

(** {1 Runtime gauges} *)

val install_runtime_gauges : ?registry:Metrics.registry -> unit -> unit
(** Register callback gauges for GC statistics ([gc.minor_collections],
    [gc.major_collections], [gc.compactions], [gc.heap_words],
    [gc.top_heap_words], [gc.minor_words]).  Idempotent; call again
    after {!Metrics.reset}. *)
