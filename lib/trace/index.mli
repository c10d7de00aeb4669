(** Query indices over a log's time-sorted event array, built once at
    construction time (see {!Log}).

    Three structures back all span/progress/delay queries of the
    analyses:
    - a per-thread index: each thread's event offsets and times in
      ascending order, with a prefix count of its non-[Read] ("progress")
      events — binary search turns "events of thread [t] in [lo, hi]" and
      "did [t] progress inside [lo, hi]" into O(log n) lookups;
    - a per-address access index: the [Read]/[Write] events of each
      traced address in time order, in address first-seen order;
    - a per-thread delayed-event index: offsets of events carrying an
      injected delay, so "first delayed event in a window" is a binary
      search instead of a scan. *)

type per_thread = {
  positions : int array;  (** offsets into the event array, ascending *)
  times : int array;      (** times.(i) = time of positions.(i), non-decreasing *)
  progress : int array;
      (** prefix counts: progress.(i) = number of non-[Read] events among
          the thread's first [i] events; length = #events + 1 *)
  delayed_positions : int array;  (** offsets of events with [delayed_by > 0] *)
  delayed_times : int array;
}

type t

val build : Event.t array -> t
(** [build events] indexes a time-sorted event array.  Dispatches to a
    dense array-counter build when tids and access targets are small
    non-negative ints (the simulator's id allocator guarantees this), and
    to a generic hashtable build otherwise. *)

val build_dense : Event.t array -> max_tid:int -> max_addr:int -> t
(** The dense build directly, for callers that already scanned the
    array: every [tid] must lie in [0, max_tid] and every access target
    in [0, max_addr] — violations are undefined behaviour (the build
    indexes plain arrays with those bounds, unchecked).  Use {!build}
    unless the bounds are certain. *)

(** Incremental dense build for deserializers: call {!Dense_builder.note}
    once per event from inside the decode loop (in event order), then
    {!Dense_builder.finish} on the decoded array.  This folds the
    counting pass of {!build} into the decode loop, leaving only the
    fill pass — one full scan of the record array less.  [finish]
    returns [None] when the events fall outside the dense-id regime
    (caller falls back to {!build}). *)
module Dense_builder : sig
  type index := t

  type t

  val create : events:int -> t
  (** [events] is the total event count (known from the frame header);
      it bounds the dense-id range exactly as {!build}'s dispatch does. *)

  val note : t -> tid:int -> target:int -> delayed:bool -> is_access:bool -> unit
  (** Must be called once per event, in array order, with that event's
      fields. *)

  val finish : t -> Event.t array -> index option
  (** [events] must be the array whose elements were [note]d, in the
      same order. *)
end

val lower_bound : int array -> int -> int
(** First index whose value is [>= v] (array length if none). *)

val upper_bound : int array -> int -> int
(** First index whose value is [> v]. *)

val thread : t -> int -> per_thread
(** The per-thread index of [tid]; an empty index for unknown threads. *)

val thread_event_count : t -> int -> int

val progress_count : t -> tid:int -> lo:int -> hi:int -> int
(** Number of non-[Read] events of [tid] with [lo <= time <= hi] — the
    "did the thread make progress" primitive of window refinement.
    Strict bounds are expressed by the caller as [lo+1] / [hi-1]. *)

val first_delayed_in :
  t -> Event.t array -> tid:int -> lo:int -> hi:int -> Event.t option
(** First-in-time delayed event of [tid] with [lo <= time <= hi]. *)

val has_delayed_in : t -> tid:int -> lo:int -> hi:int -> bool

val distinct_addrs : t -> int
(** Number of distinct traced addresses. *)

val iter_addr_accesses : t -> (int -> Event.t array -> unit) -> unit
(** Iterate per-address access arrays in address first-seen order —
    deterministic across rebuilds of the same log. *)
