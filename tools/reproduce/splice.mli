(** Regenerate the marked blocks of a markdown document.

    A block is the lines between [<!-- reproduce:NAME -->] and
    [<!-- /reproduce -->], each marker alone on its line.  Everything
    outside the blocks is kept byte for byte. *)

val splice :
  file:string -> render:(string -> string option) -> string -> (string, string) result
(** [splice ~file ~render doc] replaces each block's contents with a
    blank line, [render NAME], and another blank line.  An unknown name
    ([render] returns [None]), a marker inside a block, a closing marker
    outside one, or a block never closed is an error
    ["FILE:LINE: reason"], where LINE is 1-based. *)
