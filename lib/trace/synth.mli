(** Deterministic synthetic stress logs for extraction benchmarks.

    Parameterized generator of large many-address x many-thread traces
    with conflicting cross-thread access pairs inside the default [near]
    window, hot/cold address skew (so per-pair caps actually trigger),
    shared timestamps (span-cache hits), method frames (some left open),
    and occasional injected delays (refinement path).  Same parameters
    and seed always yield the same log; nothing is written to disk —
    benchmarks and tests build their large inputs on the fly. *)

val log : ?seed:int -> addrs:int -> threads:int -> events:int -> unit -> Log.t
(** [log ~addrs ~threads ~events ()] generates an indexed log of
    [events] events over [addrs] traced addresses and [threads] threads
    (plus Begin/End frame events drawn from the same budget).  [seed]
    defaults to 1.  Raises [Invalid_argument] on non-positive [addrs] or
    [threads]. *)
