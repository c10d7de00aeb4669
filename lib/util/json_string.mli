(** JSON string literals. *)

val add : Buffer.t -> string -> unit
(** [add buf s] appends [s] to [buf] as a quoted JSON string.  The quote
    and the backslash are escaped with a backslash; newline, carriage
    return and tab are written as their short escapes, other bytes below
    0x20 as six-character unicode escapes, and every other byte as is
    (so UTF-8 passes through unchanged). *)
