(** The binary trace format: framed, columnar, zero-copy.

    A file is [magic "SHLKTRC\x01"], a fixed header, an interned
    operation table (each distinct {!Opid.t} appears once; events refer
    to it by index), five fixed-width event columns
    (time/target/tid/op/delayed_by, stored in the log's time order), and
    a footer with duration, thread count, and the sorted volatile
    addresses.  All sections are 8-aligned and little-endian, so
    {!load} can map the file ([Unix.map_file]) and read the columns
    through naturally-aligned Bigarray views — no line parsing, no
    intermediate lists, no sort on ingest.

    Encoding is canonical: the same log always produces the same bytes.

    Most callers want {!Trace_io}, which sniffs the magic bytes and
    dispatches between this format and the text format. *)

val magic : string
(** The 8-byte frame marker (version byte last). *)

val output : out_channel -> Log.t -> unit
(** Write [log]'s image to the channel, streaming through one reused
    buffer.  Raises [Invalid_argument] if a tid, op index or delay does
    not fit its 32-bit column. *)

val to_string : Log.t -> string
(** The file image as a string. *)

val load : string -> Log.t
(** Map the file at [path] and rebuild the log over its columns.
    Raises [Failure "path: byte N: Trace_bin: ..."] on a malformed or
    truncated file, where [N] is the offset of the bad frame. *)

val of_string : ?path:string -> string -> Log.t
(** Decode an in-memory image; same errors as {!load}, with [path]
    (default ["<string>"]) in the message. *)
