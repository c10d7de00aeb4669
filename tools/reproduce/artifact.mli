(** A paper artifact as data: the cells of one or more tables, and the
    one renderer that turns them into the markdown EXPERIMENTS.md holds. *)

type cell =
  | Text of string
  | Int of int
  | Pct of float  (** a percentage; non-finite renders as "n/a" *)

type table = {
  caption : string;  (** "" for none *)
  header : string list;
  rows : cell list list;  (** the first cell of a row is its label *)
}

(** [Markdown] renders pipe tables; [Fenced] renders space-aligned
    columns inside one code fence (Figure 4, the Tables 8/9 listing). *)
type style = Markdown | Fenced

type t = { title : string; style : style; tables : table list }

val table : ?caption:string -> string list -> cell list list -> table

val cell_text : cell -> string
(** A cell as rendered: integers in decimal, percentages rounded. *)

val numeric_cells : t -> (string * float) list
(** Every {!Int} and finite {!Pct} cell, keyed ["ROW/COLUMN"] by its
    row label and column header, in table order. *)

val render : t -> string
(** The artifact's markdown, ending in a newline.  Columns are padded
    to their widest cell. *)
