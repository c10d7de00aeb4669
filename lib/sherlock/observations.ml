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

(* Merge identity: the pair and both sides themselves.  Sides are
   canonical sorted arrays, so structural equality and [Hashtbl.hash] on
   them are multiset equality and a consistent hash — no per-window copy
   into binding lists. *)
module Key = struct
  type t = (Opid.t * Opid.t) * Windows.side * Windows.side

  let of_window (w : Windows.t) = (w.pair, w.rel, w.acq)
end

type t = {
  merged : (Key.t, merged_window ref) Hashtbl.t;
  mutable order : merged_window ref array;
      (* merged windows in arrival order; [0, nmerged) live.  Gives the
         encoder a stable id per merged window, so an incremental round
         encodes only the suffix added since its watermark (weight bumps
         mutate existing cells in place and need no re-encoding). *)
  mutable nmerged : int;
  mutable races : (Opid.t * Opid.t) list;
  races_seen : (Opid.t * Opid.t, unit) Hashtbl.t;
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
    merged = Hashtbl.create 64;
    order =
      (let z = Opid.read ~cls:"" "" in
       Array.make 64
         (ref
            {
              pair = (z, z);
              field = "";
              rel = Windows.Side.empty;
              acq = Windows.Side.empty;
              weight = 0;
              coords = [];
            }));
    nmerged = 0;
    races = [];
    races_seen = Hashtbl.create 64;
    durs = Durations.create ();
    nruns = 0;
    metrics = Metrics.create ();
  }

let add_window t (w : Windows.t) =
  let key = Key.of_window w in
  match Hashtbl.find_opt t.merged key with
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
    Hashtbl.add t.merged key cell;
    if t.nmerged >= Array.length t.order then begin
      let order = Array.make (2 * Array.length t.order) cell in
      Array.blit t.order 0 order 0 t.nmerged;
      t.order <- order
    end;
    t.order.(t.nmerged) <- cell;
    t.nmerged <- t.nmerged + 1

(* Pure log -> observation delta, safe to evaluate in a worker domain.
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
      if not (Hashtbl.mem t.races_seen r.race_pair) then begin
        Hashtbl.add t.races_seen r.race_pair ();
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

let race_count t = Hashtbl.length t.races_seen

let racy_pairs t = t.races

let is_racy_pair t pair = Hashtbl.mem t.races_seen pair

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
  let tallies : (Opid.t, tally) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to t.nmerged - 1 do
    let w = !(t.order.(i)) in
    let bump op n =
      match Hashtbl.find_opt tallies op with
      | Some c ->
        c.total <- c.total + (n * w.weight);
        c.count <- c.count + w.weight
      | None -> Hashtbl.add tallies op { total = n * w.weight; count = w.weight }
    in
    Windows.Side.iter bump w.rel;
    Windows.Side.iter bump w.acq
  done;
  fun op ->
    match Hashtbl.find_opt tallies op with
    | Some c when c.count > 0 -> float_of_int c.total /. float_of_int c.count
    | _ -> 0.0

let candidate_count t =
  let ops = ref Opid.Set.empty in
  Hashtbl.iter
    (fun _ r ->
      let w = !r in
      Windows.Side.iter (fun op _ -> ops := Opid.Set.add op !ops) w.rel;
      Windows.Side.iter (fun op _ -> ops := Opid.Set.add op !ops) w.acq)
    t.merged;
  Opid.Set.cardinal !ops
