(** ASCII table rendering for the command-line reports.

    The CLI's application list and per-round metrics are printed
    through this module, as aligned tables in the style of the paper. *)

type t

val create : title:string -> header:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** Append a row.  Rows shorter than the header are padded with blanks. *)

val add_separator : t -> unit
(** Append a horizontal rule (used before summary rows). *)

val render : t -> string
(** Render with box-drawing-free ASCII alignment. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)
