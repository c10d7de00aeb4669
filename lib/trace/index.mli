(** Query indices over a log's time-sorted event array, built once by
    the log constructor (see {!Log.of_array}), whatever the log's source:
    the simulator, either trace codec, or {!Synth}.

    Three structures back all span/progress/delay queries of the
    analyses:
    - a per-thread index: each thread's event offsets and times in
      ascending order, with a prefix count of its non-[Read] ("progress")
      events — binary search turns "events of thread [t] in [lo, hi]" and
      "did [t] progress inside [lo, hi]" into O(log n) lookups — and its
      number of [Begin] events, which sizes the extraction's frame table;
    - a per-address access index: the offsets of each traced address's
      [Read]/[Write] events in time order, in address first-seen order
      (offsets, like every other view);
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
  begins : int;  (** number of [Begin] events: the frames the thread pushes *)
}

type t

module Tid_tbl : Hashtbl.S with type key = int
(** A table keyed on thread ids, hashed and compared as ints. *)

val build : Event.t array -> t
(** [build events] indexes a time-sorted event array in two passes: the
    first numbers tids and access targets in first-seen order and
    counts them, the second fills arrays sized exactly from
    those counts.  Any int is a valid tid or address. *)

val lower_bound : int array -> int -> int
(** First index whose value is [>= v] (array length if none). *)

val upper_bound : int array -> int -> int
(** First index whose value is [> v]. *)

val thread : t -> int -> per_thread
(** The per-thread index of [tid]; an empty index for unknown threads. *)

val progress_count : t -> tid:int -> lo:int -> hi:int -> int
(** Number of non-[Read] events of [tid] with [lo <= time <= hi] — the
    "did the thread make progress" primitive of window refinement.
    Strict bounds are expressed by the caller as [lo+1] / [hi-1]. *)

val first_progress_after : t -> tid:int -> int -> int
(** [first_progress_after t ~tid after] is the time of [tid]'s first
    non-[Read] event with [time > after], or [max_int] if there is none:
    [tid] made no progress strictly inside [(after, lo)] iff it is
    [>= lo]. *)

val first_delayed_in :
  t -> Event.t array -> tid:int -> lo:int -> hi:int -> Event.t option
(** First-in-time delayed event of [tid] with [lo <= time <= hi]. *)

val has_delayed_in : t -> tid:int -> lo:int -> hi:int -> bool

val distinct_addrs : t -> int
(** Number of distinct traced addresses. *)

val iter_addr_accesses : t -> (int -> int array -> unit) -> unit
(** Iterate per-address access offsets (into the event array, ascending)
    in address first-seen order — deterministic across rebuilds of the
    same log. *)
