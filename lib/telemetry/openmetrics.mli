(** OpenMetrics / Prometheus text exposition of metrics snapshots, and
    the parser that reads expositions back for [sherlock stats] and the
    smoke checks.

    Registry names are mangled to legal metric names
    ([[a-z_:][a-z0-9_:]*]): prefixed ["sherlock_"], lowercased, illegal
    characters mapped to ['_'].  Counters get the ["_total"] suffix;
    histograms expose cumulative [_bucket{le="..."}] series (power-of-two
    upper bounds matching {!Metrics.Histogram}'s buckets) plus [_sum] and
    [_count].  The raw registry name is kept in each family's HELP
    text. *)

type mtype = MCounter | MGauge | MHistogram | MUnknown

val mtype_name : mtype -> string

val mangle : string -> string
(** [mangle "windows.span_cache.hit"] is
    ["sherlock_windows_span_cache_hit"]. *)

val valid_name : string -> bool
(** Matches the OpenMetrics metric-name grammar [[a-z_:][a-z0-9_:]*]
    (lowercase-only, as this exporter emits). *)

val of_point : Snapshot.point -> string
(** Full exposition of one snapshot: [# HELP]/[# TYPE] per family, every
    counter / gauge / histogram, two self-description gauges
    ([sherlock_snapshot_timestamp_seconds], [sherlock_snapshot_seq]),
    terminated by [# EOF]. *)

val to_string : ?registry:Metrics.registry -> unit -> string
(** Capture an ephemeral snapshot of [registry] (default
    {!Metrics.default}) and render it with {!of_point}. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] replaces [path]'s contents with
    {!Sherlock_util.Atomic_file.write}, so a concurrent reader never
    observes a partial exposition. *)

(** {1 Parsing} *)

type sample = {
  s_series : string;  (** full series name, e.g. ["sherlock_x_bucket"] *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = {
  f_name : string;
  f_type : mtype;
  f_help : string option;
  mutable f_samples : sample list;  (** file order *)
}

val parse : string -> (family list, string) result
(** Parse an exposition (families in declaration order).  Validates
    series names against {!valid_name}, label syntax, sample values, and
    the [# EOF] terminator; errors carry the 1-based line number.
    Samples with a conventional suffix ([_total], [_bucket], [_sum],
    [_count]) attach to their declared base family. *)

val parse_file : string -> (family list, string) result
