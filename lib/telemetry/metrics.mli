(** Named counters, gauges and histograms: the one source of counters.
    Stage CPU time is recorded here as the [span.<name>.cpu_us]
    histograms {!Span.with_span} observes, in microseconds so that the
    power-of-two buckets resolve it; round history is the
    {!Snapshot} points taken of a registry.

    Primitives are unconditional.  The main thread writes them; the
    snapshot ticker's systhread reads them: counters and gauges are
    plain ints, histograms take a per-histogram mutex.  Hot paths (window
    extraction, the simplex, the simulator's scheduler) additionally gate
    their observations on {!enabled}, a process-wide flag an entry point
    flips on when the user asks for telemetry, so the instrumented code
    costs one load when telemetry is off. *)

val set_enabled : bool -> unit

val enabled : unit -> bool

module Counter : sig
  type t

  val name : t -> string

  val incr : ?by:int -> t -> unit

  val value : t -> int
end

module Histogram : sig
  type t
  (** Power-of-two buckets plus exact count/sum/min/max: enough for means
      and coarse percentiles without retaining samples. *)

  val name : t -> string

  val observe : t -> float -> unit

  val observe_int : t -> int -> unit

  val count : t -> int

  val sum : t -> float

  val mean : t -> float
  (** [nan] when empty. *)

  val min_value : t -> float

  val max_value : t -> float

  type export = {
    e_count : int;
    e_sum : float;
    e_min : float;  (** [infinity] when empty *)
    e_max : float;  (** [neg_infinity] when empty *)
    e_buckets : int array;
        (** bucket [i] counts observations in [(2^(i-1), 2^i]]; bucket 0
            everything [<= 1] *)
  }

  val export : t -> export
  (** A coherent copy taken under the histogram's mutex — what the
      snapshot ring and the OpenMetrics exporter read. *)

  val percentile : export -> float -> float
  (** [percentile e p] with [p] in [0, 1]: the upper bound of the bucket
      holding the p-quantile (an over-approximation within 2x), clamped
      into [[e_min, e_max]] when that range is known; [nan] when empty.
      The one percentile of the registry's summaries, the console's
      ([pp_summary], [sherlock stats]) included. *)
end

module Gauge : sig
  (** A point-in-time level (heap words, eta-file length), as opposed to a {!Counter}'s monotone accumulation.
      Cell gauges ({!val-gauge}) are set by the instrumented code;
      callback gauges ({!gauge_fn}) are evaluated at read time, so
      sources like [Gc.quick_stat] need no pushing. *)

  type t

  val name : t -> string

  val set : t -> int -> unit
  (** No-op on a callback gauge. *)

  val add : t -> int -> unit

  val value : t -> int
  (** Cell value, or the callback's result (0 if it raises). *)
end

type registry

val create : unit -> registry
(** A fresh, empty registry (tests and isolated measurements). *)

val default : registry
(** The process-wide registry all pipeline instrumentation records into. *)

val counter : ?registry:registry -> string -> Counter.t
(** Get or create; the same name always yields the same counter. *)

val histogram : ?registry:registry -> string -> Histogram.t

val gauge : ?registry:registry -> string -> Gauge.t
(** Get or create a cell gauge; the same name always yields the same
    gauge. *)

val gauge_fn : ?registry:registry -> string -> (unit -> int) -> Gauge.t
(** Install (or replace) a callback gauge evaluated at read time.
    Unlike {!val-gauge}, a repeated call rebinds the name to the new
    closure, so re-installation after {!reset} — or over a fresher
    resource — never keeps reading a stale callback. *)

val counters : registry -> Counter.t list
(** Sorted by name. *)

val histograms : registry -> Histogram.t list

val gauges : registry -> Gauge.t list

val reset : registry -> unit
(** Drop every counter, gauge and histogram (between runs in one
    process). *)

val pp_summary : Format.formatter -> registry -> unit
(** Text summary: one line per counter, one per histogram with
    count/mean/min/max/p50/p95/p99. *)
