(** Static operation identities.

    SherLock identifies every synchronization candidate by the
    fully-qualified *static* name of the operation — [Class::member]
    plus whether the operation is a field read, a field write, a method
    entry, or a method exit (paper §4.2: all dynamic instances of an
    operation share one inference variable).  This module is that
    identity. *)

type kind =
  | Read   (** read of a heap field *)
  | Write  (** write to a heap field *)
  | Begin  (** method entry (application method) or call-site entry (API) *)
  | End    (** method exit or call-site return *)

type t = private {
  cls : string;     (** fully-qualified class name, C#-style *)
  member : string;  (** field or method name *)
  kind : kind;
  id : int;         (** dense number, in creation order (see below) *)
}
(** Ops are hash-consed: every constructor returns the one record of its
    names and kind, so {!equal} and {!hash} read only [id], and a table
    keyed on ops hashes no name ({!Tbl}, {!Numbering}).  Ids follow creation
    order, which depends on what ran first, so an id must never decide an
    order, a tie-break or an output.  {!compare} orders by name, and so
    does polymorphic comparison ([id] is the last field).  Records live
    as long as the process. *)

val check_name : string -> unit
(** Raises [Invalid_argument] if the name contains whitespace or control
    characters — names like that would corrupt the space-delimited trace
    format.  Every constructor applies it to a name not yet interned, so
    a rejected name never enters the table. *)

val read : cls:string -> string -> t
val write : cls:string -> string -> t
val enter : cls:string -> string -> t
val exit : cls:string -> string -> t
(** All four constructors raise [Invalid_argument] if [cls] or the member
    name contains whitespace or a control character (see {!check_name}). *)

val with_kind : t -> kind -> t
(** The op of the same class and member with the given kind. *)

val interned : unit -> int
(** Number of distinct ops created so far; every id is below it.  The
    registry counter [opid.interned] counts the same creations. *)

val compare : t -> t -> int
(** By class, then member, then kind ([Read < Write < Begin < End]). *)

val equal : t -> t -> bool
(** Same op: [equal a b] iff [compare a b = 0] iff [a == b]. *)

val hash : t -> int
(** The id. *)

val is_access : t -> bool
(** [Read] or [Write]. *)

val is_frame : t -> bool
(** [Begin] or [End]. *)

val is_system : t -> bool
(** Heuristic used for the Single-Role constraint: operations of
    [System.*] and [Microsoft.*] classes are library APIs. *)

val method_key : t -> string
(** ["Class::member"], ignoring the kind — the identity under which
    method durations are aggregated. *)

val field_key : t -> string
(** Same rendering, used as the identity of a field. *)

val counterpart : t -> t
(** The paired op: read<->write for fields, begin<->end for methods. *)

val to_string : t -> string
(** E.g. ["System.Threading.Monitor::Enter-Begin"] or
    ["Write-k8s.ByteBuffer::endOfFile"], following the paper's Tables 8/9
    conventions. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Keyed on the id: no name is read per lookup.  Its iteration order
    follows ids, so it must not reach an output. *)

(** A dense numbering of the ops one call meets (a log's, say), [0, 1,
    ...] in first-appearance order.  It is keyed on the id but sized by
    the ops numbered, not by the intern table, so a small log costs a
    small table. *)
module Numbering : sig
  type op := t
  type t

  val create : unit -> t

  val number : t -> op -> int
  (** The op's number, given on its first call. *)

  val find : t -> op -> int
  (** The op's number, or [-1] if it has none. *)

  val length : t -> int

  val op : t -> int -> op
  (** [op t k] is the op numbered [k], for [0 <= k < length t]. *)
end
