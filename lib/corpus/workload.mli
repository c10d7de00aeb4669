(** Shared workload idioms for the benchmark applications. *)

open Sherlock_sim

val poll : 'a Heap.t -> int -> 'a
(** [poll cell n] reads the cell [n] times with small gaps and returns the
    last value — the repeated-configuration-read shape that separates
    plain data reads from acquire operations under the
    Synchronizations-are-Rare hypothesis. *)

val await_untraced : 'a Heap.t -> ('a -> bool) -> unit
(** Wait for a condition with *untraced* reads — used by test harness code
    (e.g. waiting for the simulated GC) that must not itself look like a
    synchronization to the observer. *)

val chores : cls:string -> int -> unit
(** Run [n] short, constant-duration utility method frames
    ([cls::FormatValue] / [cls::Validate]).  Real applications are full of
    such helpers; they anchor the bottom of the duration-CV distribution
    that the Acquisition-Time-Mostly-Varies percentile ranks against. *)

val stress : workers:int -> iters:int -> unit -> unit
(** The lock-contention stress program: [workers] threads, each doing
    [iters] iterations of a read-modify-write of one of 8 lock-protected
    fields plus unprotected flag traffic.  Its log (~7 events per
    iteration per worker) dwarfs any corpus test's, and its threads
    interleave on every lock hand-off. *)
