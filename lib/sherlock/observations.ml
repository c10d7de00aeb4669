open Sherlock_trace

type merged_window = {
  pair : Opid.t * Opid.t;
  field : string;
  rel : Windows.side;
  acq : Windows.side;
  weight : int;
  coords : Windows.coord list;
      (* sample of trace coordinates merged into this window, arrival
         order, capped — provenance evidence, never part of the merge key *)
}

let max_coords = 8

(* Merge identity: the pair and both sides themselves, compared and
   hashed by op id (see [Windows.Side]).  These tables are only probed,
   never iterated into an output, so id-dependent buckets decide
   nothing. *)
module Pair = struct
  type t = Opid.t * Opid.t

  let equal (a, b) (c, d) = Opid.equal a c && Opid.equal b d
  let hash (a, b) = ((Opid.hash a * 65599) + Opid.hash b) land max_int
end

module Pairs = Hashtbl.Make (Pair)

module Merged = Hashtbl.Make (struct
  type t = Pair.t * Windows.side * Windows.side

  let equal (p, r, a) (q, s, b) = Pair.equal p q && Windows.Side.equal r s && Windows.Side.equal a b

  let hash (p, r, a) =
    ((((Pair.hash p * 65599) + Windows.Side.hash r) * 65599) + Windows.Side.hash a) land max_int
end)

type t = {
  merged : merged_window ref Merged.t;
  mutable order : merged_window ref array;
      (* merged windows in arrival order; [0, nmerged) live.  Gives the
         encoder a stable id per merged window, so an incremental round
         encodes only the suffix added since its watermark (weight bumps
         mutate existing cells in place and need no re-encoding). *)
  mutable nmerged : int;
  mutable races : (Opid.t * Opid.t) list;
  races_seen : unit Pairs.t;
      (* membership index over [races]: dedup used to be a [List.exists]
         per incoming race — quadratic across a large corpus *)
  durs : Durations.t;
  mutable nruns : int;
  metrics : Metrics.t;
}

type extraction = {
  x_windows : Windows.t list;
  x_races : Windows.race list;
  x_samples : (string * float array) list;
  x_metrics : Metrics.t;
}

let create () =
  {
    merged = Merged.create 64;
    order = [||];
    nmerged = 0;
    races = [];
    races_seen = Pairs.create 64;
    durs = Durations.create ();
    nruns = 0;
    metrics = Metrics.create ();
  }

let add_window t (w : Windows.t) =
  let key = (w.pair, w.rel, w.acq) in
  match Merged.find_opt t.merged key with
  | Some r ->
    let coords =
      if List.length !r.coords < max_coords then !r.coords @ [ w.coord ]
      else !r.coords
    in
    r := { !r with weight = !r.weight + 1; coords }
  | None ->
    let cell =
      ref
        {
          pair = w.pair;
          field = w.field;
          rel = w.rel;
          acq = w.acq;
          weight = 1;
          coords = [ w.coord ];
        }
    in
    Merged.add t.merged key cell;
    if t.nmerged >= Array.length t.order then begin
      let order = Array.make (max 64 (2 * Array.length t.order)) cell in
      Array.blit t.order 0 order 0 t.nmerged;
      t.order <- order
    end;
    t.order.(t.nmerged) <- cell;
    t.nmerged <- t.nmerged + 1

(* Pure log -> observation delta.
   NOTE: window caps are per static pair *within one extraction*; the
   cross-run cap state lives in [Windows.extract]'s own counters seeded
   fresh per call, so extraction commutes with other logs and folding the
   deltas in test order reproduces the sequential path exactly. *)
let extract_log ~near ~cap ~refine log =
  let x_metrics = Metrics.create () in
  let x_windows, x_races, x_samples =
    Windows.extract_with_samples ~near ~cap ~refine ~metrics:x_metrics log
  in
  { x_windows; x_races; x_samples; x_metrics }

let add_extraction t x =
  t.nruns <- t.nruns + 1;
  Durations.add_samples t.durs x.x_samples;
  List.iter (add_window t) x.x_windows;
  List.iter
    (fun (r : Windows.race) ->
      if not (Pairs.mem t.races_seen r.race_pair) then begin
        Pairs.add t.races_seen r.race_pair ();
        t.races <- r.race_pair :: t.races
      end)
    x.x_races;
  Metrics.merge ~into:t.metrics x.x_metrics

let add_log t ~near ~cap ~refine log =
  add_extraction t (extract_log ~near ~cap ~refine log)

(* Arrival order: stable across library versions (no dependence on
   hash-bucket layout) and aligned with the incremental ids below. *)
let windows t =
  let acc = ref [] in
  for i = t.nmerged - 1 downto 0 do
    acc := !(t.order.(i)) :: !acc
  done;
  !acc

let window_count t = t.nmerged

let window_at t i =
  if i < 0 || i >= t.nmerged then invalid_arg "Observations.window_at";
  !(t.order.(i))

let race_count t = Pairs.length t.races_seen

let racy_pairs t = t.races

let is_racy_pair t pair = Pairs.mem t.races_seen pair

let durations t = t.durs

let runs t = t.nruns

let metrics t = t.metrics

type tally = {
  mutable total : int;
  mutable count : int;
}

(* One pass over the merged windows tabulates every op's dynamic-instance
   total and window count, so a round's rare terms cost O(window sides)
   instead of one full fold per candidate op.  Integer sums, so the
   averages do not depend on visiting order. *)
let avg_occurrences t =
  let tallies : tally Opid.Tbl.t = Opid.Tbl.create 64 in
  for i = 0 to t.nmerged - 1 do
    let w = !(t.order.(i)) in
    let bump op n =
      match Opid.Tbl.find_opt tallies op with
      | Some c ->
        c.total <- c.total + (n * w.weight);
        c.count <- c.count + w.weight
      | None -> Opid.Tbl.add tallies op { total = n * w.weight; count = w.weight }
    in
    Windows.Side.iter bump w.rel;
    Windows.Side.iter bump w.acq
  done;
  fun op ->
    match Opid.Tbl.find_opt tallies op with
    | Some c when c.count > 0 -> float_of_int c.total /. float_of_int c.count
    | _ -> 0.0

let candidate_count t =
  let ops = ref Opid.Set.empty in
  for i = 0 to t.nmerged - 1 do
    let w = !(t.order.(i)) in
    Windows.Side.iter (fun op _ -> ops := Opid.Set.add op !ops) w.rel;
    Windows.Side.iter (fun op _ -> ops := Opid.Set.add op !ops) w.acq
  done;
  Opid.Set.cardinal !ops
