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

type t = {
  cls : string;     (** fully-qualified class name, C#-style *)
  member : string;  (** field or method name *)
  kind : kind;
}

val check_name : string -> unit
(** Raises [Invalid_argument] if the name contains whitespace or control
    characters — names like that would corrupt the space-delimited trace
    format.  Applied by every constructor below; exposed so serializers
    can re-check names of records built by hand (the type is concrete). *)

val read : cls:string -> string -> t
val write : cls:string -> string -> t
val enter : cls:string -> string -> t
val exit : cls:string -> string -> t
(** All four constructors raise [Invalid_argument] if [cls] or the member
    name contains whitespace or a control character (see {!check_name}). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

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

val kind_name : kind -> string

val to_string : t -> string
(** E.g. ["System.Threading.Monitor::Enter-Begin"] or
    ["Write-k8s.ByteBuffer::endOfFile"], following the paper's Tables 8/9
    conventions. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Keyed on {!equal} and {!hash}: cheaper per lookup than the
    polymorphic table, which hashes the whole record generically. *)
