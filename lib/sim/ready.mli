(** The scheduler's ready set: threads waiting for their next pick, each
    with the clock it was pushed at and its resumption.

    Entries are kept in parallel arrays in push order, so pushing,
    picking and removing allocate nothing (growth aside).  The pick rule
    is the scheduler's: the smallest clock wins, and when two or more
    entries tie at it, one draw [Rng.int rng n] over the [n] tied
    entries, counted newest-pushed first, chooses among them.  A unique
    minimum draws nothing.  Removal shifts the later entries down, so
    push order is kept for the remaining ones. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty set.  [dummy] fills unused slots, so a removed entry's
    value is not kept alive. *)

val length : 'a t -> int

val push : 'a t -> tid:int -> clock:int -> 'a -> unit

val pick : 'a t -> Sherlock_util.Rng.t -> int
(** The slot of the entry the pick rule chooses.  The set must be
    non-empty. *)

val pick_running : 'a t -> Sherlock_util.Rng.t -> clock:int -> int
(** The pick rule over the entries plus the running thread at [clock],
    counted as the newest push: [-1] when the running thread wins, else
    the slot of the entry that does.  It draws exactly what
    [push] of the running thread followed by {!pick} would draw, and
    the winning slot is the one {!pick} would return, so pushing the
    running thread afterwards and removing that slot leaves the set as
    the push-then-pick would.  The set may be empty. *)

val tid : 'a t -> int -> int
(** The tid pushed into a slot. *)

val clock : 'a t -> int -> int
(** The clock pushed into a slot. *)

val remove : 'a t -> int -> 'a
(** Remove a slot's entry and return its value. *)
