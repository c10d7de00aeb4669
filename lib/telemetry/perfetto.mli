(** Chrome trace-event JSON, the format Perfetto and [chrome://tracing]
    load natively.

    Three producers feed it: {!of_spans} turns a span collector's
    wall-clock tree into one [X] (complete) event per span, all on one
    track, with each span's CPU milliseconds in its args; {!of_points} turns
    snapshot points into counter tracks; the
    virtual-time exporter ([Sherlock_core.Timeline]) builds events
    directly — per-thread tracks of method frames, running/blocked
    intervals, delay-injection markers, and flow arrows between
    conflicting accesses.

    Timestamps and durations are integer microseconds (the trace-event
    unit), which for virtual-time exports coincide with the simulator's
    own clock. *)

type arg = Span.value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type ph =
  | Complete of int    (** an [X] slice with its duration *)
  | Instant            (** an [i] thread-scoped marker *)
  | Counter            (** a [C] counter-track point; value in [args] *)
  | Flow_start of int  (** an [s] event opening flow [id] *)
  | Flow_end of int    (** an [f] (binding-point [e]) event closing flow [id] *)
  | Metadata           (** an [M] event; [name] is the metadata kind *)

type event = {
  name : string;
  cat : string;
  ph : ph;
  ts : int;   (** microseconds *)
  pid : int;
  tid : int;
  args : (string * arg) list;
}

val complete :
  ?cat:string -> ?args:(string * arg) list ->
  name:string -> ts:int -> dur:int -> pid:int -> tid:int -> unit -> event

val instant :
  ?cat:string -> ?args:(string * arg) list ->
  name:string -> ts:int -> pid:int -> tid:int -> unit -> event

val counter :
  ?cat:string -> name:string -> ts:int -> pid:int -> value:int -> unit -> event
(** One point on the counter track [name] — a [C] event whose [args]
    carry [{"value": v}]. *)

val flow_start :
  ?cat:string -> ?name:string -> id:int -> ts:int -> pid:int -> tid:int -> unit -> event

val flow_end :
  ?cat:string -> ?name:string -> id:int -> ts:int -> pid:int -> tid:int -> unit -> event

val process_name : pid:int -> string -> event

val thread_name : pid:int -> tid:int -> string -> event

val thread_sort_index : pid:int -> tid:int -> int -> event

val prepare : event list -> event list
(** Normalized emission order: metadata events first, then everything
    else stably sorted by timestamp, with negative [Complete] durations
    clamped to 0.  [to_string]/[write] apply this; it is exposed so the
    ordering and clamping are testable. *)

val to_string : event list -> string
(** The full JSON document, [{"traceEvents": [...]}]. *)

val write : string -> event list -> unit
(** Write the JSON document to a file with
    {!Sherlock_util.Atomic_file.write}: a failed export leaves the file
    as it was. *)

val of_spans : Span.collector -> event list
(** Wall-clock export of every closed span (plus process/track naming
    metadata): timestamps are microseconds since the collector's epoch,
    every span on [tid] 0, its CPU milliseconds in the [cpu_ms] arg. *)

val of_points : epoch:float -> Snapshot.point list -> event list
(** Counter tracks from snapshot points ({!Snapshot.points}): one [C]
    point per counter per snapshot (so Perfetto renders each counter
    progressing round by round rather than as a single end-of-run
    value), plus one instant marker per snapshot carrying its label.
    [epoch] should be the span collector's so the tracks align with
    {!of_spans}. *)
