(** Structured logging: levelled events with key/value context, one
    JSON object per line (JSONL).

    The pipeline's fault-handling paths — supervised retries and drops,
    LP degradation and aborts, the scheduler watchdog — emit through
    here, so operational events are grep-able ([jq 'select(.event ==
    "orch.run.retry")'] and the like) instead of ad-hoc [eprintf]
    lines.  Instrumented code calls {!warn}/{!info} unconditionally:
    emission is a no-op costing one load until a sink is
    installed ([--log-out], [SHERLOCK_LOG], or {!set_writer} in tests).

    Each line carries ["ts"] (wall-clock seconds since the epoch),
    ["elapsed_s"] (seconds since the sink was installed — monotone
    within a run and immune to the absolute clock's magnitude),
    ["level"], ["event"], then the event's own fields in order. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

val level_of_string : string -> level option

type value = Int of int | Float of float | Bool of bool | Str of string

val set_level : level -> unit
(** Minimum level that reaches the sink; default [Debug]. *)

val enabled : level -> bool
(** A sink is installed and [level] passes the threshold — for guarding
    expensive field computation. *)

val to_file : string -> unit
(** Install a JSONL file sink (truncates), replacing any current sink. *)

val to_stderr : unit -> unit

val set_writer : (string -> unit) option -> unit
(** Install a raw line consumer (tests), or [None] to remove the sink. *)

val close : unit -> unit
(** Flush and close the current sink; emission becomes a no-op again. *)

val init_from_env : unit -> unit
(** Honor [SHERLOCK_LOG]: a path, ["stderr"], or ["LEVEL:PATH"] (e.g.
    ["warn:run.jsonl"]).  Unset or empty: no sink. *)

val emit : level -> string -> (string * value) list -> unit
(** [emit level event fields] writes one line; [Float nan] renders as
    [null] so lines stay valid JSON. *)

val debug : string -> (string * value) list -> unit

val info : string -> (string * value) list -> unit

val warn : string -> (string * value) list -> unit

val error : string -> (string * value) list -> unit
