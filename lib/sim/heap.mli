(** Traced heap cells.

    Every cell belongs to a named class field ([cls::field]); its dynamic
    address is fresh per allocation, while the static {!Sherlock_trace.Opid.t}
    identifies the field — the same split the paper uses (variables are
    identified by fully-qualified type; all dynamic instances share one
    inference variable).

    [read]/[write] emit trace events and are scheduling points; [peek] and
    [poke] are the untraced back-door used by the internals of
    synchronization primitives, which the paper's instrumentation likewise
    does not see. *)

type 'a t

val cell : cls:string -> field:string -> ?volatile:bool -> 'a -> 'a t
(** Allocate inside a running simulation.  [volatile] marks the address in
    the log for the manually-annotated race detector only.  The cell's
    read, write, getter and setter op ids are created here, so a [cls] or
    [field] that {!Sherlock_trace.Opid.check_name} rejects raises
    [Invalid_argument] from [cell], not at the first access. *)

val read : 'a t -> 'a

val write : 'a t -> 'a -> unit

val peek : 'a t -> 'a

val poke : 'a t -> 'a -> unit

val addr : 'a t -> int

val cls : 'a t -> string

val field : 'a t -> string

val spin_until : 'a t -> ('a -> bool) -> unit
(** Spin-wait with randomized backoff, emitting a traced read per
    iteration — the shape of the while-loop flag synchronization of the
    paper's Figure 3.B. *)

val getter : 'a t -> 'a
(** C# property accessor tracing (paper §4.1 traces "getter and setter
    methods of public properties"): a read access under the member name
    [get_<field>]. *)

val setter : 'a t -> 'a -> unit
(** The matching property setter: a write access under [set_<field>]. *)
