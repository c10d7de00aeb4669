(** Replace a file all at once or not at all. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh temporary file in [path]'s
    directory, then renames it over [path].  A reader of [path] sees the
    old contents or the new ones, never a partial write.  If [f], the
    close or the rename raises, the temporary file is removed, [path] is
    left as it was, and the exception is re-raised. *)
