module Tm = Sherlock_telemetry.Metrics

type t = {
  events : Event.t array;
  duration : int;
  threads : int;
  volatile_addrs : (int, unit) Hashtbl.t;
  index : Index.t;
}

let c_runs = Tm.counter "log.order.runs"

(* The first [n] events of [buf] in (time, position in [buf]) order, and
   the number of sorted runs merged to get there (0 when they were in
   order already).

   The simulator emits events as threads execute, so emission order is
   not time order; but a thread's clock never goes backwards, so each
   thread's own events arrive time-sorted.  Rather than sort, one pass
   checks whether the whole prefix is in order — deserialized and
   synthetic logs are, and are used as they are.  Otherwise the events
   are bucketed by tid (stably), each bucket is cut wherever its time
   descends, and the resulting runs are merged on the key
   (time, position) with a binary heap of run heads.  The key strictly
   increases along every run, so the merge reproduces a stable sort by
   time exactly, whatever the input. *)
let time_order buf n =
  let time i = (Array.unsafe_get buf i).Event.time in
  let k = ref 1 in
  while !k < n && time (!k - 1) <= time !k do
    incr k
  done;
  if !k >= n then ((if n = Array.length buf then buf else Array.sub buf 0 n), 0)
  else begin
    (* [bucket.(i)]: event [i]'s tid, numbered in first-seen order. *)
    let ids = Index.Ids.create n in
    let bucket =
      Array.init n (fun i -> Index.Ids.number ids (Array.unsafe_get buf i).tid)
    in
    let buckets = Index.Ids.length ids in
    (* [pos]: event positions grouped by bucket, ascending within one,
       cut into runs at bucket starts and at time descents: [starts]
       marks each run's first slot. *)
    let fill = Array.init buckets (Index.Ids.count ids) in
    let starts = Bytes.make n '\000' in
    let total = ref 0 in
    for b = 0 to buckets - 1 do
      let size = fill.(b) in
      fill.(b) <- !total;
      Bytes.set starts !total '\001';
      total := !total + size
    done;
    let pos = Array.make n 0 in
    let last = Array.make buckets min_int in
    let runs = ref buckets in
    for i = 0 to n - 1 do
      let b = bucket.(i) and t = time i in
      let slot = fill.(b) in
      pos.(slot) <- i;
      fill.(b) <- slot + 1;
      if t < last.(b) then begin
        Bytes.set starts slot '\001';
        incr runs
      end;
      last.(b) <- t
    done;
    (* Run [r] covers slots [cur.(r)] up to [stop.(r)]; its head event
       is at position [head_pos.(r)], with time [head_time.(r)]. *)
    let runs = !runs in
    let cur = Array.make runs 0 and stop = Array.make runs n in
    let r = ref 0 in
    for k = 0 to n - 1 do
      if Bytes.get starts k = '\001' then begin
        if !r > 0 then stop.(!r - 1) <- k;
        cur.(!r) <- k;
        incr r
      end
    done;
    let head_pos = Array.make runs 0 and head_time = Array.make runs 0 in
    let load r =
      let p = pos.(cur.(r)) in
      head_pos.(r) <- p;
      head_time.(r) <- time p
    in
    for r = 0 to runs - 1 do
      load r
    done;
    (* Min-heap of the live runs, keyed on their heads' (time, position). *)
    let before a b =
      head_time.(a) < head_time.(b)
      || (head_time.(a) = head_time.(b) && head_pos.(a) < head_pos.(b))
    in
    let heap = Array.init runs Fun.id in
    let live = ref runs in
    let rec sift_down h =
      let l = (2 * h) + 1 in
      if l < !live then begin
        let c = if l + 1 < !live && before heap.(l + 1) heap.(l) then l + 1 else l in
        if before heap.(c) heap.(h) then begin
          let top = heap.(h) in
          heap.(h) <- heap.(c);
          heap.(c) <- top;
          sift_down c
        end
      end
    in
    for h = (runs / 2) - 1 downto 0 do
      sift_down h
    done;
    let out = Array.make n buf.(0) in
    for k = 0 to n - 1 do
      let r = heap.(0) in
      out.(k) <- buf.(head_pos.(r));
      cur.(r) <- cur.(r) + 1;
      if cur.(r) = stop.(r) then begin
        decr live;
        heap.(0) <- heap.(!live)
      end
      else load r;
      sift_down 0
    done;
    (out, runs)
  end

(* The one constructor: every log — simulated, parsed, decoded,
   synthetic — is put in time order and indexed here, and no other code
   makes a [t].  [buf] is taken by ownership. *)
let of_prefix buf n ~duration ~threads ~volatile_addrs =
  let events, runs = time_order buf n in
  Tm.Counter.incr ~by:runs c_runs;
  { events; duration; threads; volatile_addrs; index = Index.build events }

let of_array arr = of_prefix arr (Array.length arr)

let create ~events = of_array (Array.of_list events)

(* A fresh value every call: the volatile-address table is mutable, so a
   shared [empty] would leak one caller's mutations into another's log. *)
let empty () =
  of_array [||] ~duration:0 ~threads:0 ~volatile_addrs:(Hashtbl.create 1)

module Builder = struct
  type t = {
    mutable buf : Event.t array;
    mutable len : int;
  }

  let dummy = Event.make ~time:0 ~tid:0 ~op:(Opid.read ~cls:"" "") ()

  let create () = { buf = Array.make 256 dummy; len = 0 }

  let add b e =
    if b.len = Array.length b.buf then begin
      let bigger = Array.make (2 * b.len) dummy in
      Array.blit b.buf 0 bigger 0 b.len;
      b.buf <- bigger
    end;
    b.buf.(b.len) <- e;
    b.len <- b.len + 1

  let length b = b.len

  (* A full buffer already in order becomes the log's array; a later
     [add] would grow into a fresh buffer and leave it untouched. *)
  let finish b ~duration ~threads ~volatile_addrs =
    of_prefix b.buf b.len ~duration ~threads ~volatile_addrs
end

let length t = Array.length t.events

let volatile_list t =
  List.sort Int.compare (Hashtbl.fold (fun a () acc -> a :: acc) t.volatile_addrs [])

let iter f t = Array.iter f t.events

let index t = t.index

let events_of_thread t tid =
  let pt = Index.thread t.index tid in
  List.map (fun i -> t.events.(i)) (Array.to_list pt.positions)

(* First position with [time >= lo] in the global (time-sorted) array. *)
let first_at_or_after t lo =
  let n = Array.length t.events in
  let rec go a b =
    if a >= b then a
    else
      let mid = (a + b) / 2 in
      if t.events.(mid).time < lo then go (mid + 1) b else go a mid
  in
  go 0 n

let between t ~lo ~hi =
  let n = Array.length t.events in
  let rec collect k =
    if k < n && t.events.(k).time <= hi then t.events.(k) :: collect (k + 1)
    else []
  in
  collect (first_at_or_after t lo)

let thread_active_in t ~tid ~lo ~hi =
  let pt = Index.thread t.index tid in
  let i = Index.lower_bound pt.times lo in
  i < Array.length pt.times && pt.times.(i) <= hi

let progress_count t ~tid ~lo ~hi = Index.progress_count t.index ~tid ~lo ~hi

let first_delayed_in t ~tid ~lo ~hi =
  Index.first_delayed_in t.index t.events ~tid ~lo ~hi

let has_delayed_in t ~tid ~lo ~hi = Index.has_delayed_in t.index ~tid ~lo ~hi

type frame = {
  tid : int;
  op : Opid.t;
  t_begin : int;
  t_end : int;
  index : int;
  parent : int;
}

(* Frames match on the rendered [Opid.method_key], compared as strings:
   the key is not injective when names contain ':', and every consumer
   has always matched on it.  Equal names imply equal keys, so the common
   case allocates nothing. *)
let same_method (a : Opid.t) (b : Opid.t) =
  (String.equal a.member b.member && String.equal a.cls b.cls)
  || String.equal (Opid.method_key a) (Opid.method_key b)

(* A thread's open frames, innermost first, with [t_end = max_int], and
   the number of frames it has pushed so far. *)
type stack = {
  mutable frames : frame list;
  mutable pushed : int;
}

(* The one per-thread frame matcher behind window open-frame candidates,
   method durations, and the timeline's frame slices.  The top of a
   stack is the parent of the next frame pushed on it.  Closed frames are
   handed to [on_close] as they close rather than collected, so a long
   log's frames are never all live at once. *)
let fold_frames t ~init ~f:on_close =
  let stacks : (int, stack) Hashtbl.t = Hashtbl.create 8 in
  let slot tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = { frames = []; pushed = 0 } in
      Hashtbl.add stacks tid s;
      s
  in
  let acc = ref init in
  (* Close the innermost frame of [s] matching [e], skipping mismatches. *)
  let rec pop s (e : Event.t) skipped = function
    | [] -> ()
    | frame :: rest when same_method frame.op e.op ->
      s.frames <- List.rev_append skipped rest;
      acc := on_close !acc { frame with t_end = e.time }
    | frame :: rest -> pop s e (frame :: skipped) rest
  in
  Array.iter
    (fun (e : Event.t) ->
      match e.op.kind with
      | Opid.Begin ->
        let s = slot e.tid in
        let parent = match s.frames with top :: _ -> top.index | [] -> -1 in
        let frame =
          { tid = e.tid; op = e.op; t_begin = e.time; t_end = max_int; index = s.pushed; parent }
        in
        s.frames <- frame :: s.frames;
        s.pushed <- s.pushed + 1
      | Opid.End ->
        let s = slot e.tid in
        pop s e [] s.frames
      | Opid.Read | Opid.Write -> ())
    t.events;
  let still_open = ref [] in
  Hashtbl.iter (fun _ s -> still_open := List.rev_append s.frames !still_open) stacks;
  (!acc, List.rev !still_open)

let distinct_addrs (t : t) = Index.distinct_addrs t.index

let iter_addr_accesses (t : t) f = Index.iter_addr_accesses t.index f

let pp ppf t =
  Format.fprintf ppf "log: %d events, %dus, %d threads@." (Array.length t.events)
    t.duration t.threads;
  Array.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) t.events
