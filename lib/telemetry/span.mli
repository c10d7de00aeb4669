(** Hierarchical spans over the inference pipeline: the one source of
    stage time.

    A span is opened with {!with_span}, covers the host wall-clock and
    process CPU time of its body, and closes even when the body raises —
    the tree of closed spans is therefore always well nested.  Spans
    record into a {!collector} installed with {!set_collector}.  When
    the metrics registry is enabled ({!Metrics.enabled}), every closed
    span of name [n] is also one observation of the histogram
    [span.n.cpu_us] (its CPU time in microseconds), collector or not.  With neither, {!with_span} is a
    tail call into the body (two loads of overhead), so instrumented
    code paths cost nothing in normal runs.  Spans are opened and closed
    on the main thread only. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type closed = {
  id : int;             (** unique within the collector *)
  parent : int option;  (** innermost enclosing span *)
  name : string;
  start_s : float;      (** absolute host time, [Unix.gettimeofday] *)
  end_s : float;
  cpu_start_s : float;
      (** process CPU seconds, [Sys.time]; every run is single-domain,
          so the difference is this span's own CPU *)
  cpu_end_s : float;
  attrs : (string * value) list;  (** in attachment order *)
}

type collector

val create_collector : unit -> collector

val epoch : collector -> float
(** Host time the collector was created; exports use it as time zero. *)

val closed_spans : collector -> closed list
(** Every span closed so far, in close order. *)

val span_count : collector -> int

val set_collector : collector option -> unit
(** Install (or remove) the process-wide collector. *)

val current_collector : unit -> collector option

val with_span : ?attrs:(string * value) list -> name:string -> (unit -> 'a) -> 'a
(** Run the body inside a span.  The span closes when the body returns
    {e or raises}; the exception is re-raised after the close.  With no
    collector installed and the registry enabled, only the
    [span.<name>.cpu_us] observation is made. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span;
    a no-op when no span is open or no collector is installed. *)

val open_depth : unit -> int
(** Number of open spans (0 outside any span). *)
