(** Artifact cells over many seeds, as JSON through
    {!Sherlock_provenance.Json}:

    {v
{"seeds": [1, ...],
 "artifacts": {"table2": {"Sum/Syncs": {"values": [...], "median": m,
                                        "q1": a, "q3": b}, ...}, ...}}
    v}

    [values] holds one number per seed, [null] where the cell is
    missing at that seed (a precision over zero verdicts); the median
    and the nearest-rank quartiles are over the numbers present. *)

val collect :
  ?progress:(int -> unit) ->
  seeds:int list ->
  (string * (Sherlock_core.Config.t -> Artifact.t)) list ->
  Sherlock_provenance.Json.t
(** Run each artifact at the paper's defaults with each seed.
    [progress] is called with each seed before it runs. *)

val spread :
  Sherlock_provenance.Json.t ->
  artifact:string ->
  string ->
  (float * float * float) option
(** The median, first and third quartile of one cell, if present. *)

val with_spread : Sherlock_provenance.Json.t -> string -> Artifact.t -> Artifact.t
(** [with_spread json name artifact] appends a "median [IQR]" row under
    Table 2's sums ([name] = ["table2"]) and Table 5's full
    configuration (["table5"]), read from [json]; other artifacts are
    returned unchanged. *)
