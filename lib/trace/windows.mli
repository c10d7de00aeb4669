(** Acquire/release-window extraction (paper §4.1 and Figure 2).

    For every pair of *conflicting accesses* — two operations on the same
    address from different threads, at least one a write, at most [near]
    apart in virtual time — the operations executed in between form the
    release window (those from the first access's thread) and the acquire
    window (those from the second's).  The conflicting endpoints
    themselves are included in their windows, which is what lets a flag
    write/read pair be inferred as its own release/acquire.  A blocking
    acquire is *invoked* before the release it waits for, so the acquire
    window additionally contains the [Begin] of every method frame of the
    second thread that was already open when the window starts.

    The extraction also performs the two feedback duties of §3/§4.3:
    - window refinement from injected delays (Figure 2 b/c): if a delay
      before a release candidate [r] failed to stall the other thread, the
      release window shrinks to the ops before the delay; if it stalled
      it, the acquire window shrinks to the ops after [r];
    - observed-data-race detection: a window whose release side contains
      only reads (or is empty), or whose acquire side contains only writes
      (or is empty), cannot be protected and is reported as a race. *)

(** Candidate operations on one side of a window, with their number of
    dynamic occurrences inside this window: a finite map from op to a
    positive count, iterated in {!Opid.compare} order.  Backed by two
    parallel sorted arrays; the representation is canonical, so two sides
    holding the same multiset are structurally equal. *)
module Side : sig
  type t

  val equal : t -> t -> bool
  (** Same ops (by id) with the same counts. *)

  val hash : t -> int
  (** Of the length, the first four entries and the last op's id:
      bounded work, consistent with {!equal}, and id-dependent. *)

  val empty : t

  val is_empty : t -> bool

  val cardinal : t -> int
  (** Number of distinct ops. *)

  val mem : Opid.t -> t -> bool

  val find_opt : Opid.t -> t -> int option
  (** The op's occurrence count, if it is on the side. *)

  val iter : (Opid.t -> int -> unit) -> t -> unit
  (** In {!Opid.compare} order, with each op's count. *)

  val fold : (Opid.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

  val exists : (Opid.t -> int -> bool) -> t -> bool

  val for_all : (Opid.t -> int -> bool) -> t -> bool

  val bindings : t -> (Opid.t * int) list
  (** [(op, count)] pairs in {!Opid.compare} order. *)

  val add_one : Opid.t -> t -> t
  (** One more occurrence of the op: its count goes up by one, or it is
      inserted in order with count 1. *)

  val remove_one : Opid.t -> t -> t
  (** One occurrence fewer: the count goes down by one, and the op
      leaves the side when it reaches zero.  An absent op leaves the side
      unchanged. *)
end

type side = Side.t

type coord = {
  first_time : int;   (** virtual time of the first conflicting access *)
  first_tid : int;
  second_time : int;  (** virtual time of the second conflicting access *)
  second_tid : int;
}
(** Trace coordinates of the conflicting-access pair that opened the
    window.  Times and thread ids are preserved exactly by both the text
    and the binary trace formats, so a coordinate identifies the same
    window no matter which on-disk representation the run came from —
    the stable identity provenance records. *)

type t = {
  pair : Opid.t * Opid.t;  (** static ids of the conflicting accesses, first-then-second *)
  field : string;          (** field key of the conflicting variable *)
  rel : side;
  acq : side;
  coord : coord;           (** where in the trace this window was observed *)
}

type race = {
  race_pair : Opid.t * Opid.t;
  race_field : string;
}

val default_near : int
(** 1 second of virtual time (1_000_000 us), the paper's default. *)

val default_cap : int
(** 15 windows per static location pair, the paper's bound. *)

val extract :
  ?near:int -> ?cap:int -> ?refine:bool -> ?metrics:Metrics.t -> Log.t ->
  t list * race list
(** [extract log] returns the windows and the observed races of one run.
    [refine] (default true) applies delay-based window refinement.
    [metrics], when given, is bumped in place with the events/pairs/
    windows/races counts.  The registry counters [windows.events],
    [windows.pairs_considered], [windows.pairs_capped],
    [windows.emitted] and [windows.races] (the same counts),
    [windows.span_cache.{hit,miss}],
    [windows.span.{folded,entries}] (events folded into computed sides,
    and side entries those folds produced), [windows.scan.steps]
    (candidate tests of the address scans) and
    [windows.open_frames.visited] (frames the open-frame queries
    examined) are bumped once per extraction.

    Sides are built by counting per-extraction op ranks: the log's
    distinct ops are numbered by op id ({!Opid.Numbering}) and sorted by
    {!Opid.compare} once per call, each event's rank is recorded, and a
    span folds into a per-rank count array whose touched ranks are
    marked in a two-level bitset; walking its set bits upwards gives the
    side in {!Side} order, with no sort.  An acquire side's open frames
    are bumped into the same counts before that one walk, so a frame
    whose op also occurs in the span merges into its entry.  Ids only
    key the numbering; no order comes from them.  This state is local
    to the call.

    Cost.  Per call: one rank pass and one frame fold
    ({!Log.fold_frames}) over the events, each O(events).  All span,
    progress, and delay queries resolve by binary search over the log's
    construction-time indices (the per-thread {!Index.thread} offsets,
    {!Log.progress_count}, {!Log.first_delayed_in}); a span then costs
    its own events.  The address scan reads the per-address access
    offsets ({!Log.iter_addr_accesses}) and numbers each access's op by
    its rank, so it hashes nothing per access; it keeps, per first op, a
    count of conflicting pairs still under the cap, skips an access
    whose count is zero and stops its inner loop when the count reaches
    zero, so once every pair is capped the scan is one array read per
    access.  The open-frame query walks the enclosing-frame chain of the
    last frame pushed before the window (see {!Log.frame}): the frames
    enclosing it, not every frame that ends after it starts.  A frame
    qualifies by one comparison: on its first visit its end time is
    lowered to its thread's first progress event after its [Begin]
    ({!Index.first_progress_after}) when that comes earlier.
    A span costs O(e + k + d/3844) for e events, k entries and d
    distinct ops.  In all,
    O(events + accesses + candidate tests + pairs x window size), where
    the naive algorithm is O(pairs x events); on the 126k-event stress
    log the candidate tests are 810 and the frames visited 660.

    Addresses are scanned one after another in first-seen order, and
    each static pair's [cap] counts across addresses: a pair stops
    yielding candidates once [cap] of them were accepted anywhere in the
    log.  Repeated [(tid, lo, hi)] spans are answered from a cache that
    lives for one call; an acquire side with open frames merges them
    into the cached span side in one allocation. *)

val extract_with_samples :
  ?near:int -> ?cap:int -> ?refine:bool -> ?metrics:Metrics.t -> Log.t ->
  t list * race list * (string * float array) list
(** {!extract}, plus the log's method-duration samples exactly as
    {!Durations.samples_of_log} returns them, gathered from the frame
    fold the open-frame rule already makes instead of a second one. *)

val span_sides : Log.t -> tid:int -> lo:int -> hi:int -> Side.t
(** [span_sides log] ranks [log]'s ops once and returns the side query
    {!extract} answers spans with, uncached and without the open-frame
    and refinement rules: the events of [tid] with [lo <= time <= hi].
    The query owns scratch arrays, so it is not reentrant. *)
