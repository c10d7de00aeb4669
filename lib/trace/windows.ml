module Tm = Sherlock_telemetry.Metrics
module Tspan = Sherlock_telemetry.Span

module Side = struct
  (* Two parallel immutable arrays: the distinct ops in [Opid.compare]
     order and their occurrence counts (all >= 1).  The representation is
     canonical: equal multisets give structurally equal values. *)
  type t = { ops : Opid.t array; counts : int array }

  let equal a b =
    Array.length a.ops = Array.length b.ops
    && Array.for_all2 Opid.equal a.ops b.ops
    && a.counts = b.counts

  (* Bounded work: the length, the first four entries and the last op.
     A hash over every entry cost more than the collisions it saves. *)
  let hash s =
    let n = Array.length s.ops in
    let h = ref n in
    for i = 0 to min n 4 - 1 do
      h := (!h * 65599) + (Opid.hash s.ops.(i) * 31) + s.counts.(i)
    done;
    if n = 0 then !h else (!h * 65599) + Opid.hash s.ops.(n - 1)

  let empty = { ops = [||]; counts = [||] }

  let is_empty s = Array.length s.ops = 0

  let cardinal s = Array.length s.ops

  (* Index of [op] in [s.ops], or [-(i + 1)] for its insertion point [i]. *)
  let search op s =
    let rec go lo hi =
      if lo >= hi then -(lo + 1)
      else
        let mid = (lo + hi) lsr 1 in
        let c = Opid.compare op s.ops.(mid) in
        if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length s.ops)

  let mem op s = search op s >= 0

  let find_opt op s =
    let i = search op s in
    if i >= 0 then Some s.counts.(i) else None

  let iter f s = Array.iteri (fun i op -> f op s.counts.(i)) s.ops

  let fold f s init =
    let acc = ref init in
    Array.iteri (fun i op -> acc := f op s.counts.(i) !acc) s.ops;
    !acc

  let exists p s =
    let rec go i =
      i < Array.length s.ops && (p s.ops.(i) s.counts.(i) || go (i + 1))
    in
    go 0

  let for_all p s = not (exists (fun op n -> not (p op n)) s)

  let bindings s = List.init (cardinal s) (fun i -> (s.ops.(i), s.counts.(i)))

  let with_count s i n =
    let counts = Array.copy s.counts in
    counts.(i) <- n;
    { s with counts }

  let add_one op s =
    let i = search op s in
    if i >= 0 then with_count s i (s.counts.(i) + 1)
    else begin
      let i = -(i + 1) and n = cardinal s in
      let ops = Array.make (n + 1) op and counts = Array.make (n + 1) 1 in
      Array.blit s.ops 0 ops 0 i;
      Array.blit s.ops i ops (i + 1) (n - i);
      Array.blit s.counts 0 counts 0 i;
      Array.blit s.counts i counts (i + 1) (n - i);
      { ops; counts }
    end

  let remove_one op s =
    let i = search op s in
    if i < 0 then s
    else if s.counts.(i) > 1 then with_count s i (s.counts.(i) - 1)
    else begin
      let n = cardinal s in
      let drop a = Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1)) in
      { ops = drop s.ops; counts = drop s.counts }
    end
end

type side = Side.t

type coord = {
  first_time : int;
  first_tid : int;
  second_time : int;
  second_tid : int;
}

type t = {
  pair : Opid.t * Opid.t;
  field : string;
  rel : side;
  acq : side;
  coord : coord;
}

type race = {
  race_pair : Opid.t * Opid.t;
  race_field : string;
}

let default_near = 1_000_000

let default_cap = 15

(* Per-extraction op ranks: the log's distinct ops sorted by
   [Opid.compare], and every event's rank in that order.  A span then
   folds to small ints — a counter bump per event — and a side comes out
   already in [Side] order by walking its touched ranks upwards.  The ops
   are numbered in one pass over the events through an id-keyed
   [Opid.Numbering]; only the distinct ops are sorted, by name, so ids
   decide nothing.  Built at the start of each [extract] and owned by
   its span cache; it dies with the call, so no log outlives its
   extraction. *)
type ranks = {
  rank : int array;       (* event position -> rank *)
  op_of_rank : Opid.t array;
  numbering : Opid.Numbering.t;
  rank_of_number : int array;
}

let rank_ops (log : Log.t) =
  let numbering = Opid.Numbering.create () in
  let rank = Array.map (fun (e : Event.t) -> Opid.Numbering.number numbering e.op) log.events in
  let op_of_rank = Array.init (Opid.Numbering.length numbering) (Opid.Numbering.op numbering) in
  Array.sort Opid.compare op_of_rank;
  let rank_of_number = Array.make (Array.length op_of_rank) 0 in
  Array.iteri (fun r op -> rank_of_number.(Opid.Numbering.find numbering op) <- r) op_of_rank;
  Array.iteri (fun k n -> rank.(k) <- rank_of_number.(n)) rank;
  { rank; op_of_rank; numbering; rank_of_number }

(* The rank of an op of the log. *)
let rank_of_op ranks op = ranks.rank_of_number.(Opid.Numbering.find ranks.numbering op)

(* Scratch for building sides: a count per rank (all zero between
   sides), the touched ranks as a two-level bitset, and the work
   counters behind [windows.span.{folded,entries}].  Bit [b] of
   [words.(w)] marks rank [62w + b]; bit [b] of [summary.(s)] marks a
   nonzero [words.(62s + b)].  Bit 62 (the sign) stays clear, so a
   word's lowest set bit [x land (-x)] is a positive power of two. *)
type scratch = {
  counts : int array;
  words : int array;
  summary : int array;
  mutable marked : int;  (* distinct ranks marked since the last [emit] *)
  mutable folded : int;
  mutable entries : int;
}

let word_bits = 62

(* [bit_index.(x mod 67)] is [b] for [x = 1 lsl b]: 2 has order 66
   modulo the prime 67, so 2^0 .. 2^61 have distinct residues. *)
let bit_index =
  let t = Array.make 67 0 in
  for b = 0 to word_bits - 1 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

let scratch_create ranks =
  let d = Array.length ranks.op_of_rank in
  let nwords = (d + word_bits - 1) / word_bits in
  {
    counts = Array.make d 0;
    words = Array.make nwords 0;
    summary = Array.make ((nwords + word_bits - 1) / word_bits) 0;
    marked = 0;
    folded = 0;
    entries = 0;
  }

(* [n] more occurrences of rank [r]; its first occurrence marks it. *)
let[@inline] bump sc r n =
  let c = sc.counts.(r) in
  if c = 0 then begin
    let w = r / word_bits in
    let word = sc.words.(w) in
    if word = 0 then begin
      let s = w / word_bits in
      sc.summary.(s) <- sc.summary.(s) lor (1 lsl (w - (s * word_bits)))
    end;
    sc.words.(w) <- word lor (1 lsl (r - (w * word_bits)));
    sc.marked <- sc.marked + 1
  end;
  sc.counts.(r) <- c + n

(* The marked ranks as a side: the set bits walked upwards, which is
   [Side] order.  With [~clear:true] each bit and count is cleared as it
   is read, so the scratch is clean again afterwards; with
   [~clear:false] the scratch keeps them, for more bumps and a second
   emission. *)
let emit ~clear ranks sc =
  let k = sc.marked in
  if k = 0 then Side.empty
  else begin
    let ops = Array.make k ranks.op_of_rank.(0) and counts = Array.make k 0 in
    let x = ref 0 in
    for s = 0 to Array.length sc.summary - 1 do
      let sw = ref sc.summary.(s) in
      if clear then sc.summary.(s) <- 0;
      while !sw <> 0 do
        let low = !sw land - !sw in
        sw := !sw lxor low;
        let w = (s * word_bits) + bit_index.(low mod 67) in
        let ww = ref sc.words.(w) in
        if clear then sc.words.(w) <- 0;
        while !ww <> 0 do
          let low = !ww land - !ww in
          ww := !ww lxor low;
          let r = (w * word_bits) + bit_index.(low mod 67) in
          ops.(!x) <- ranks.op_of_rank.(r);
          counts.(!x) <- sc.counts.(r);
          if clear then sc.counts.(r) <- 0;
          incr x
        done
      done
    done;
    if clear then sc.marked <- 0;
    { Side.ops; counts }
  end

(* Count the ops of thread [tid] with lo <= time <= hi into the clean
   scratch, resolved over the per-thread index. *)
let fold_span (log : Log.t) ranks sc ~tid ~lo ~hi =
  let pt = Index.thread (Log.index log) tid in
  let i = Index.lower_bound pt.times lo and j = Index.upper_bound pt.times hi in
  for p = i to j - 1 do
    bump sc ranks.rank.(pt.positions.(p)) 1
  done;
  sc.folded <- sc.folded + max 0 (j - i);
  sc.entries <- sc.entries + sc.marked

let span_sides log =
  let ranks = rank_ops log in
  let sc = scratch_create ranks in
  fun ~tid ~lo ~hi ->
    fold_span log ranks sc ~tid ~lo ~hi;
    emit ~clear:true ranks sc

let all_kinds_are side kind =
  Side.for_all (fun (op : Opid.t) _ -> op.kind = kind) side

(* Every method frame of one thread by push index (see
   {!Log.fold_frames}): its op, begin time (ascending), parent, and the
   last window start [lo] it is an acquire candidate for.  That is its
   end time ([max_int] while open), lowered on the frame's first
   open-frame test to the time of the thread's first progress event
   after its begin, if earlier; [tested] marks the frames lowered.  Each
   array is sized from the thread's [Begin] count
   ({!Index.per_thread}), so building the table allocates nothing
   beyond it; the fold's frame records die young. *)
type thread_frames = {
  ops : Opid.t array;
  begins : int array;
  until : int array;
  parents : int array;
  tested : Bytes.t;
}

(* The frame tables by tid, and the work counter behind
   [windows.open_frames.visited].  [frame_table ~on_close] also hands
   every closed frame to [on_close], in End order, so the one fold
   serves the duration samples too. *)
type frames = {
  by_tid : thread_frames Index.Tid_tbl.t;
  mutable visited : int;
}

let frame_table ~on_close (log : Log.t) =
  let by_tid = Index.Tid_tbl.create 16 in
  let table (f : Log.frame) =
    match Index.Tid_tbl.find by_tid f.tid with
    | t -> t
    | exception Not_found ->
      let n = (Index.thread (Log.index log) f.tid).begins in
      let t =
        {
          ops = Array.make n f.op;
          begins = Array.make n 0;
          until = Array.make n 0;
          parents = Array.make n 0;
          tested = Bytes.make n '\000';
        }
      in
      Index.Tid_tbl.add by_tid f.tid t;
      t
  in
  let put (f : Log.frame) =
    let t = table f in
    t.ops.(f.index) <- f.op;
    t.begins.(f.index) <- f.t_begin;
    t.until.(f.index) <- f.t_end;
    t.parents.(f.index) <- f.parent
  in
  let (), still_open =
    Log.fold_frames log ~init:() ~f:(fun () f ->
        put f;
        on_close f)
  in
  List.iter put still_open;
  { by_tid; visited = 0 }

(* A blocking acquire (Monitor.Enter, Task.Wait, ...) is *invoked* before
   the release it waits for, so its Begin event precedes the window.  The
   invocation is still in progress during the window and is a legitimate
   acquire candidate — but only if the thread has made no progress since
   the invocation (it is plausibly blocked inside it): a frame that kept
   executing cannot be waiting for a release that has not happened yet.
   It made none strictly inside (t_begin, lo) iff its first progress
   event after t_begin comes at or after [lo], so the frame qualifies
   iff [lo] is at most both that time and its end.

   The frames of [tid] open at [lo] are those with [t_begin < lo <=
   t_end]: the last frame pushed before [lo] and its parent chain,
   filtered on [t_end >= lo].  Every one of them is on the thread's stack
   once the events before [lo] are replayed, since its [End] (if any)
   comes at or after [lo].  That stack is a subsequence of the last
   push's chain: pushing sets the parent to the top, and closes only
   remove frames, from the top or (out of order) from the middle.  So the
   chain holds every open frame, and the filter drops exactly the ones
   closed before [lo].  The ranks of the open frames' ops, innermost
   first. *)
let open_frames log ranks frames ~tid ~lo =
  match Index.Tid_tbl.find_opt frames.by_tid tid with
  | None -> []
  | Some t ->
    let acc = ref [] in
    let i = ref (Index.lower_bound t.begins lo - 1) in
    while !i >= 0 do
      let f = !i in
      frames.visited <- frames.visited + 1;
      if t.until.(f) >= lo then begin
        if Bytes.get t.tested f = '\000' then begin
          Bytes.set t.tested f '\001';
          t.until.(f) <-
            min t.until.(f) (Index.first_progress_after (Log.index log) ~tid t.begins.(f))
        end;
        if t.until.(f) >= lo then acc := rank_of_op ranks t.ops.(f) :: !acc
      end;
      i := t.parents.(f)
    done;
    !acc

(* First delayed event of [tid] inside [lo, hi], if any: a binary search
   over the delayed-event index — early exit, where the seed folded over
   the whole event array even after a match. *)
let first_delay log ~tid ~lo ~hi = Log.first_delayed_in log ~tid ~lo ~hi

let c_cache_hit = Tm.counter "windows.span_cache.hit"

let c_cache_miss = Tm.counter "windows.span_cache.miss"

let c_span_folded = Tm.counter "windows.span.folded"

let c_span_entries = Tm.counter "windows.span.entries"

let c_scan_steps = Tm.counter "windows.scan.steps"

let c_frames_visited = Tm.counter "windows.open_frames.visited"

let c_events = Tm.counter "windows.events"

let c_pairs_considered = Tm.counter "windows.pairs_considered"

let c_pairs_capped = Tm.counter "windows.pairs_capped"

let c_emitted = Tm.counter "windows.emitted"

let c_races = Tm.counter "windows.races"

(* Memoized sides.  Candidate pairs share span endpoints
   whenever several accesses to one address carry the same timestamp
   (contended bursts under a coarse clock): every pair [(a_i, b)] with
   [a_i.time] equal recomputes the same acquire span [(b.tid, t, b.time)],
   and the refine path recomputes the same [(b.tid, r.time, b.time)] span
   across pairs hitting one delay — so hot logs rebuild the same
   [(tid, lo, hi)] span many times per extraction.  The cache holds each
   span's own side, which is also its acquire side when no frame is open
   at [lo].  The function is pure and the sides are immutable, so the
   cache is observationally invisible.  One cache per extraction, owning
   the rank table, the frame table and the scratch. *)
module Span_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a, b, c) : t) (x, y, z) = a = x && b = y && c = z

  let hash ((a, b, c) : t) =
    let h = (((a * 65599) + b) * 65599) + c in
    h lxor (h lsr 23)
end)

type span_cache = {
  ranks : ranks;
  frames : frames;
  scratch : scratch;
  tbl : side Span_tbl.t;
  mutable hits : int;
  mutable misses : int;
}

let cache_create ranks frames =
  {
    ranks;
    frames;
    scratch = scratch_create ranks;
    tbl = Span_tbl.create 256;
    hits = 0;
    misses = 0;
  }

(* [raw] plus one occurrence per open frame, in one emission.  With
   [~in_scratch] the scratch still holds [raw]'s counts; otherwise they
   are bumped back from the side. *)
let with_frames cache ~in_scratch raw frames =
  let sc = cache.scratch in
  if not in_scratch then
    Side.iter (fun op n -> bump sc (rank_of_op cache.ranks op) n) raw;
  List.iter (fun r -> bump sc r 1) frames;
  emit ~clear:true cache.ranks sc

(* The release side ([acquire = false]) or the acquire side of thread
   [tid] over [lo, hi]. *)
let cached_side log cache ~acquire ~tid ~lo ~hi =
  let frames = if acquire then open_frames log cache.ranks cache.frames ~tid ~lo else [] in
  let key = (tid, lo, hi) in
  match Span_tbl.find cache.tbl key with
  | raw ->
    cache.hits <- cache.hits + 1;
    if frames = [] then raw else with_frames cache ~in_scratch:false raw frames
  | exception Not_found ->
    cache.misses <- cache.misses + 1;
    let sc = cache.scratch in
    fold_span log cache.ranks sc ~tid ~lo ~hi;
    let raw = emit ~clear:(frames = []) cache.ranks sc in
    Span_tbl.add cache.tbl key raw;
    if frames = [] then raw else with_frames cache ~in_scratch:true raw frames

(* A cache's work counts, added to the registry once the extraction is
   done. *)
let publish_cache_counts cache =
  Tm.Counter.incr ~by:cache.hits c_cache_hit;
  Tm.Counter.incr ~by:cache.misses c_cache_miss;
  Tm.Counter.incr ~by:cache.scratch.folded c_span_folded;
  Tm.Counter.incr ~by:cache.scratch.entries c_span_entries

(* Each op's field key by rank, rendered on first use: one string per
   distinct op of the extraction, shared by all its windows and races. *)
let field_keys ranks =
  let keys = Array.make (Array.length ranks.op_of_rank) "" in
  fun r ->
    if String.length keys.(r) = 0 then keys.(r) <- Opid.field_key ranks.op_of_rank.(r);
    keys.(r)

(* How one conflicting-access candidate classifies. *)
type outcome = Window of t | Race_out of race

(* Analyze one candidate pair: compute both sides, refine from injected
   delays, and classify as window or observed race. *)
let consider_one log cache ~refine ~field (a : Event.t) (b : Event.t) =
  let acq_side ~lo ~hi = cached_side log cache ~acquire:true ~tid:b.tid ~lo ~hi in
  let rel = ref (cached_side log cache ~acquire:false ~tid:a.tid ~lo:a.time ~hi:b.time) in
  let acq = ref (acq_side ~lo:a.time ~hi:b.time) in
  if refine then begin
    match first_delay log ~tid:a.tid ~lo:a.time ~hi:b.time with
    | Some r ->
      let delay_start = r.time - r.delayed_by in
      (* A spin-waiting thread is logically blocked yet still emits
         read events, so only non-read activity counts as progress. *)
      let made_progress =
        r.time - 1 >= delay_start
        && Log.progress_count log ~tid:b.tid ~lo:delay_start ~hi:(r.time - 1) > 0
      in
      let stalled = not made_progress in
      if stalled then
        (* Delay propagated: the acquire happened while waiting on [r],
           so it must lie between r and b (Figure 2 c). *)
        acq := acq_side ~lo:r.time ~hi:b.time
      else
        (* Delay did not propagate: this *instance* of r is not the
           release coordinating a and b (Figure 2 b).  Other dynamic
           instances of the same operation inside the window (e.g.
           later lock releases in a loop) remain candidates, so only
           one occurrence is discounted. *)
        rel := Side.remove_one r.op !rel
    | None -> ()
  end;
  let rel = !rel and acq = !acq in
  let rel_impossible = Side.is_empty rel || all_kinds_are rel Opid.Read in
  let acq_impossible = Side.is_empty acq || all_kinds_are acq Opid.Write in
  if rel_impossible || acq_impossible then
    Race_out { race_pair = (a.op, b.op); race_field = field }
  else
    Window
      {
        pair = (a.op, b.op);
        field;
        rel;
        acq;
        coord =
          {
            first_time = a.time;
            first_tid = a.tid;
            second_time = b.time;
            second_tid = b.tid;
          };
      }

(* Address-scan state for one extraction: each static pair's accepted
   count, keyed on its two ranks as [ra * d + rb] for [d] distinct ops;
   the local number of each rank at the address being scanned ([-1]
   elsewhere) and its inverse; and the work counter behind
   [windows.scan.steps]. *)
type scan = {
  pair_counts : (int, int ref) Hashtbl.t;
  local : int array;
  rank_of_local : int array;
  mutable steps : int;
}

let scan_create ranks =
  let d = Array.length ranks.op_of_rank in
  {
    pair_counts = Hashtbl.create 64;
    local = Array.make d (-1);
    rank_of_local = Array.make d 0;
    steps = 0;
  }

(* Pair enumeration over one address, given the offsets of its accesses.
   An address sees only a handful of static ops (the field's read/write
   and property variants), so they are numbered locally from their ranks
   and the per-static-pair cap counters are pulled out of [pair_counts]
   into a tiny matrix once per address.  Each row (one first op) keeps a
   count of its conflicting pairs still under the cap: an access whose
   row is at zero cannot start an accepted candidate, so it is skipped,
   and its inner loop ends once its row reaches zero; the whole address
   ends once every row has.  The inner loop starts at the end of the
   access's run of same-thread accesses, found once per run, so the
   polling reads of a spinning thread are not each walked again from
   every earlier one.  A same-thread pair is never a candidate, and
   times never decrease, so the [near] cutoff ends the loop where it
   would have.  Enumeration order and cap decisions are identical to
   testing each candidate directly.  [emit ra a b] fires for each
   accepted candidate, [ra] the rank of [a]'s op; [on_capped] fires when
   a pair's count reaches the cap. *)
let scan_address ~near ~cap ~on_capped ~emit (events : Event.t array) ranks sc
    positions =
  let n = Array.length positions in
  let local p = sc.local.(ranks.rank.(p)) in
  let k = ref 0 in
  Array.iter
    (fun p ->
      let r = ranks.rank.(p) in
      if sc.local.(r) < 0 then begin
        sc.local.(r) <- !k;
        sc.rank_of_local.(!k) <- r;
        incr k
      end)
    positions;
  let k = !k in
  let d = Array.length ranks.op_of_rank in
  let op_at ia = ranks.op_of_rank.(sc.rank_of_local.(ia)) in
  let counts =
    Array.init k (fun ia ->
        Array.init k (fun ib ->
            let key = (sc.rank_of_local.(ia) * d) + sc.rank_of_local.(ib) in
            match Hashtbl.find_opt sc.pair_counts key with
            | Some r -> r
            | None ->
              let r = ref 0 in
              Hashtbl.add sc.pair_counts key r;
              r))
  in
  let conflicting =
    Array.init k (fun ia ->
        Array.init k (fun ib -> (op_at ia).kind = Opid.Write || (op_at ib).kind = Opid.Write))
  in
  (* Conflicting static pairs not yet at the cap, per row and in all. *)
  let row = Array.make k 0 in
  for ia = 0 to k - 1 do
    for ib = 0 to k - 1 do
      if conflicting.(ia).(ib) && !(counts.(ia).(ib)) < cap then
        row.(ia) <- row.(ia) + 1
    done
  done;
  let live = ref (Array.fold_left ( + ) 0 row) in
  (try
     if !live = 0 then raise Exit;
     (* The end of the run of same-thread accesses holding [i]. *)
     let run_end = ref 0 in
     for i = 0 to n - 1 do
       let ia = local positions.(i) in
       if row.(ia) > 0 then begin
         let a = events.(positions.(i)) in
         if !run_end <= i then begin
           run_end := i + 1;
           while !run_end < n && events.(positions.(!run_end)).tid = a.tid do
             incr run_end
           done
         end;
         let j = ref !run_end in
         while
           !j < n && row.(ia) > 0 && events.(positions.(!j)).time - a.time <= near
         do
           sc.steps <- sc.steps + 1;
           let b = events.(positions.(!j)) in
           let ib = local positions.(!j) in
           if a.tid <> b.tid && conflicting.(ia).(ib) then begin
             let c = counts.(ia).(ib) in
             if !c < cap then begin
               incr c;
               if !c = cap then begin
                 on_capped ();
                 row.(ia) <- row.(ia) - 1;
                 decr live
               end;
               emit sc.rank_of_local.(ia) a b;
               if !live = 0 then raise Exit
             end
           end;
           incr j
         done
       end
     done
   with Exit -> ());
  for x = 0 to k - 1 do
    sc.local.(sc.rank_of_local.(x)) <- -1
  done

let extract_with_samples ?(near = default_near) ?(cap = default_cap) ?(refine = true)
    ?metrics (log : Log.t) =
 Tspan.with_span ~name:"windows.extract" @@ fun () ->
  (* Telemetry histograms are resolved once per extraction and only when
     telemetry is on, so the per-pair hot path pays a single branch. *)
  let tm_on = Tm.enabled () in
  let h_window_dur = if tm_on then Some (Tm.histogram "windows.duration_us") else None in
  let h_pairs_per_loc =
    if tm_on then Some (Tm.histogram "windows.pairs_per_location") else None
  in
  let durations = Durations.collector log in
  let ranks = rank_ops log in
  let frames = frame_table ~on_close:(Durations.collect durations) log in
  let cache = cache_create ranks frames in
  let field = field_keys ranks in
  let sc = scan_create ranks in
  let windows = ref [] in
  let races = ref [] in
  let nwindows = ref 0 and nraces = ref 0 in
  let considered = ref 0 and capped = ref 0 in
  (* Accept one candidate: bump the counters, record the window or race,
     observe the duration histogram. *)
  let dispatch (a : Event.t) (b : Event.t) out =
    incr considered;
    (match out with
    | Race_out r ->
      incr nraces;
      races := r :: !races
    | Window w ->
      incr nwindows;
      windows := w :: !windows);
    match h_window_dur with
    | Some h -> Tm.Histogram.observe_int h (b.time - a.time)
    | None -> ()
  in
  Log.iter_addr_accesses log (fun _addr positions ->
      if Array.length positions > 1 then begin
        let before = !considered in
        scan_address ~near ~cap
          ~on_capped:(fun () -> incr capped)
          ~emit:(fun ra a b -> dispatch a b (consider_one log cache ~refine ~field:(field ra) a b))
          log.events ranks sc positions;
        match h_pairs_per_loc with
        | Some h -> Tm.Histogram.observe_int h (!considered - before)
        | None -> ()
      end);
  publish_cache_counts cache;
  Tm.Counter.incr ~by:sc.steps c_scan_steps;
  Tm.Counter.incr ~by:frames.visited c_frames_visited;
  Tm.Counter.incr ~by:(Log.length log) c_events;
  Tm.Counter.incr ~by:!considered c_pairs_considered;
  Tm.Counter.incr ~by:!capped c_pairs_capped;
  Tm.Counter.incr ~by:!nwindows c_emitted;
  Tm.Counter.incr ~by:!nraces c_races;
  (match metrics with
  | None -> ()
  | Some (m : Metrics.t) ->
    m.events <- m.events + Log.length log;
    m.pairs_considered <- m.pairs_considered + !considered;
    m.pairs_capped <- m.pairs_capped + !capped;
    m.windows <- m.windows + !nwindows;
    m.races <- m.races + !nraces);
  Tspan.add_attr "events" (Tspan.Int (Log.length log));
  Tspan.add_attr "windows" (Tspan.Int !nwindows);
  Tspan.add_attr "races" (Tspan.Int !nraces);
  Tspan.add_attr "pairs" (Tspan.Int !considered);
  (List.rev !windows, List.rev !races, Durations.collected durations)

let extract ?near ?cap ?refine ?metrics log =
  let windows, races, _ = extract_with_samples ?near ?cap ?refine ?metrics log in
  (windows, races)
