(** An execution trace: the ordered event stream of one simulated run plus
    the metadata the analyses need (volatile-field registry for the
    manually-annotated race detector, wall-clock span, thread count).

    The store is indexed at construction time (see {!Index}): per-thread
    offsets with progress prefix counts, per-address access offsets, and
    per-thread delayed-event offsets.  All span/progress/delay queries the
    analyses issue resolve by binary search over these indices instead of
    rescanning the event array. *)

type t = {
  events : Event.t array;     (** sorted by [time], ties broken by emission order *)
  duration : int;             (** virtual end time of the run, microseconds *)
  threads : int;              (** number of threads that ran *)
  volatile_addrs : (int, unit) Hashtbl.t;
      (** addresses of fields declared volatile in the program under test.
          SherLock never reads this; only the Manual_dr annotation-based
          race detector does (paper §5.4). *)
  index : Index.t;
      (** query indices over [events], built by the one constructor
          behind {!of_array}, {!create}, {!empty} and {!Builder.finish} *)
}

val create : events:Event.t list -> duration:int -> threads:int ->
  volatile_addrs:(int, unit) Hashtbl.t -> t
(** [of_array] of the list's events. *)

val of_array : Event.t array -> duration:int -> threads:int ->
  volatile_addrs:(int, unit) Hashtbl.t -> t
(** The log of [events], put in time order — by [time], ties by position
    in the array — and indexed.  An array already in that order (a
    simulated, parsed or decoded trace, a synthetic log) is checked in
    one pass and used as it is; otherwise it is sorted in place by a
    stable sort on [time], and the registry counter [log.order.sorted]
    grows by one.  The array is taken by ownership. *)

val empty : unit -> t
(** A fresh empty log.  This is a function: the embedded volatile-address
    table is mutable, so a single shared value would let one caller's
    mutation leak into every other "empty" log. *)

(** Incremental construction for the simulator's emit path and the text
    loader: events go into a growable buffer kept in time order as it
    fills, and [finish] hands it to the constructor behind {!of_array},
    which finds it in order and builds the indexed store — no
    intermediate list, no sort. *)
module Builder : sig
  type log := t

  type t

  val create : unit -> t

  val max_shift : int
  (** How far back, at most, {!add} moves an event: 64 places. *)

  val add : t -> Event.t -> unit
  (** Add an event, kept in the stable time sort of the events added so
      far: an event earlier than the last one moves back past the events
      whose [time] is strictly greater.  That is at most {!max_shift}
      places; an event that would move further is appended instead, and
      from then on the builder only appends and {!finish} sorts.  The
      simulator never gets there: each of its threads has at most one
      event ahead of the current pick, so an add moves fewer places than
      there are threads.  Places moved add to the registry counter
      [log.order.shifts] at {!finish}. *)

  val length : t -> int
  (** Events added so far. *)

  val finish : t -> duration:int -> threads:int ->
    volatile_addrs:(int, unit) Hashtbl.t -> log
end

val length : t -> int

val volatile_list : t -> int list
(** The volatile addresses in ascending order: the order both trace
    formats write them in, so that saving a log is deterministic. *)

val iter : (Event.t -> unit) -> t -> unit

val index : t -> Index.t

val events_of_thread : t -> int -> Event.t list
(** Events of one thread in time order. *)

val between : t -> lo:int -> hi:int -> Event.t list
(** Events with [lo <= time <= hi], in time order. *)

val thread_active_in : t -> tid:int -> lo:int -> hi:int -> bool
(** Whether thread [tid] completed any operation in the window —
    the delay-propagation test of paper §3 (Figure 2 b/c). *)

val progress_count : t -> tid:int -> lo:int -> hi:int -> int
(** Number of non-[Read] events of [tid] with [lo <= time <= hi]; reads
    are excluded because a spin-waiting thread still reads (paper §3). *)

val first_delayed_in : t -> tid:int -> lo:int -> hi:int -> Event.t option
(** First-in-time event of [tid] carrying an injected delay with
    [lo <= time <= hi]. *)

val has_delayed_in : t -> tid:int -> lo:int -> hi:int -> bool

type frame = {
  tid : int;
  op : Opid.t;      (** the frame's [Begin] op *)
  t_begin : int;
  mutable t_end : int;
      (** time of the matching [End]; [max_int] while open.  Set once,
          by {!fold_frames}, when the frame closes. *)
  index : int;
      (** push index: the frame's [Begin] is [tid]'s [index]-th [Begin]
          (from 0, in log order) *)
  parent : int;
      (** push index of the frame on top of [tid]'s stack when this one
          was pushed, or [-1] if the stack was empty *)
}
(** One method frame: a [Begin] and the [End] that closed it.

    The parents chain every frame to the frames that enclosed it when it
    was pushed, so "which frames of [tid] are open at time [lo]" needs
    no scan: they are the last frame of [tid] pushed before [lo] and its
    parent chain, those with [t_end >= lo].  Every frame still on the
    stack at [lo] is on that chain, even after an out-of-order close
    removed a frame from the middle of the stack (see
    [Windows.extract]). *)

val fold_frames : t -> init:'a -> f:('a -> frame -> 'a) -> 'a * frame list
(** [fold_frames log ~init ~f] replays every thread's Begin/End events
    against a per-thread stack.  An [End] closes the nearest open frame
    of its thread whose {!Opid.method_key} equals its own — string
    equality, so [("A:", ":B")] and [("A", "::B")] match — skipping
    mismatches (a filtered-out frame can leave an unmatched [Begin]
    behind); an [End] with no match is ignored.  Folds [f] over the
    closed frames in [End] order and returns the result with the frames
    still open at the end of the log ([t_end = max_int]): innermost first
    within a thread, threads in an order fixed by the log.  A thread's
    push indexes run from 0 to the number of its [Begin] events minus
    one: every [Begin] makes a frame, closed or still open. *)

val distinct_addrs : t -> int
(** Number of distinct traced addresses (size hint for per-address state,
    e.g. the race detector's variable table). *)

val iter_addr_accesses : t -> (int -> int array -> unit) -> unit
(** Iterate per-address access offsets into [events] (ascending, so in
    time order) in address first-seen order. *)

val pp : Format.formatter -> t -> unit
(** Full dump, for debugging. *)
