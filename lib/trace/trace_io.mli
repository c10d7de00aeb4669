(** Trace serialization — the artifact's log-file workflow.

    The paper's pipeline writes execution logs to disk during the
    instrumented runs and solves from those files afterwards; this module
    provides the same decoupling, in two on-disk formats behind one
    front:

    - {b Text} (default for {!save}) — the line-oriented debug/import
      format:
      {v
      sherlock-trace 1
      duration <us>
      threads <n>
      volatile <addr>            (zero or more)
      e <time> <tid> <kind> <target> <delayed_by> <cls> <member>
      v}
      where [kind] is one of [r w b e].  Class and member names must not
      contain whitespace or control characters (C# qualified names never
      do).  No op can carry such a name: {!Opid.check_name} rejects it
      when the op is created, so the writer copies names as they are,
      and the reader rejects a bad name at its line.
    - {b Binary} — the framed, interned, mmap-backed format of
      {!Trace_bin}, for large logs.

    Readers ({!load}, {!of_string}) never need a format argument: they
    sniff the leading magic bytes and dispatch. *)

type format = Text | Binary

val format_of_file : string -> format
(** Sniff the magic bytes of the file at [path].  Files that are neither
    format report [Text] (and then fail in the text parser with a
    positioned message).  Raises [Sys_error] if unreadable. *)

val format_name : format -> string
(** ["text"] or ["binary"]. *)

val save : ?format:format -> Log.t -> string -> unit
(** Write the log to a file ([format] defaults to [Text]), through a
    temporary file renamed over [path] ({!Sherlock_util.Atomic_file}):
    a save that fails leaves [path] as it was.  Raises [Sys_error] on IO
    failure and, for [Binary], [Invalid_argument] if a value does not
    fit its 32-bit column.  Names are not checked here: every op's were
    checked by {!Opid.check_name} when it was created. *)

val load : string -> Log.t
(** Read a log back, auto-detecting the format.  Raises [Failure] on
    malformed input; the message starts with ["file:line:"] (text) or
    ["file: byte N:"] (binary) pointing at the offending input.  Both
    readers validate each distinct operation name as {!Opid.check_name}
    does, failing at the input that introduced a bad one, and share one
    [Opid.t] among all events of the same operation. *)

val to_string : ?format:format -> Log.t -> string

val of_string : ?path:string -> string -> Log.t
(** Auto-detecting decode; [path] (default ["<string>"]) is only used to
    label parse errors. *)
