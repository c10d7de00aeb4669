module Tm = Sherlock_telemetry.Metrics

type t = {
  events : Event.t array;
  duration : int;
  threads : int;
  volatile_addrs : (int, unit) Hashtbl.t;
  index : Index.t;
}

let c_sorted = Tm.counter "log.order.sorted"

let c_shifts = Tm.counter "log.order.shifts"

(* The first [n] events of [buf] in (time, position in [buf]) order, and
   whether they had to be sorted.  One pass checks whether the prefix is
   in order already: simulated logs (the builder keeps them in order as
   they fill), parsed and decoded traces and synthetic logs are, and are
   used as they are.  Anything else — a hand-built array, a file written
   out of order — gets a stable sort by time. *)
let time_order buf n =
  let time i = (Array.unsafe_get buf i).Event.time in
  let k = ref 1 in
  while !k < n && time (!k - 1) <= time !k do
    incr k
  done;
  let events = if n = Array.length buf then buf else Array.sub buf 0 n in
  if !k >= n then (events, false)
  else begin
    Array.stable_sort
      (fun (a : Event.t) (b : Event.t) -> Int.compare a.time b.time)
      events;
    (events, true)
  end

(* The one constructor: every log — simulated, parsed, decoded,
   synthetic — is put in time order and indexed here, and no other code
   makes a [t].  [buf] is taken by ownership. *)
let of_prefix buf n ~duration ~threads ~volatile_addrs =
  let events, sorted = time_order buf n in
  if sorted then Tm.Counter.incr c_sorted;
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
    mutable last : int;  (* time of the latest event added at the end *)
    mutable ordered : bool;  (* the buffer is the stable time sort of the adds *)
    mutable shifts : int;  (* events moved up by ordered inserts *)
  }

  let max_shift = 64

  let dummy = Event.make ~time:0 ~tid:0 ~op:(Opid.read ~cls:"" "") ()

  let create () =
    { buf = Array.make 256 dummy; len = 0; last = min_int; ordered = true; shifts = 0 }

  (* [e] is earlier than the last of the [n] ordered events in the
     buffer: put it after the last event no later than it, if that is at
     most [max_shift] places back; otherwise append it, and leave the
     order to [finish] from now on. *)
  let insert b (e : Event.t) n =
    let buf = b.buf in
    let stop = if n > max_shift then n - max_shift else 0 in
    let i = ref (n - 1) in
    while !i > stop && (Array.unsafe_get buf (!i - 1)).time > e.time do
      decr i
    done;
    if !i = 0 || buf.(!i - 1).time <= e.time then begin
      Array.blit buf !i buf (!i + 1) (n - !i);
      buf.(!i) <- e;
      b.shifts <- b.shifts + (n - !i)
    end
    else begin
      b.ordered <- false;
      buf.(n) <- e
    end

  let add b (e : Event.t) =
    if b.len = Array.length b.buf then begin
      let bigger = Array.make (2 * b.len) dummy in
      Array.blit b.buf 0 bigger 0 b.len;
      b.buf <- bigger
    end;
    let n = b.len in
    b.len <- n + 1;
    if e.time >= b.last then begin
      b.buf.(n) <- e;
      b.last <- e.time
    end
    else if b.ordered then insert b e n
    else b.buf.(n) <- e

  let length b = b.len

  (* A full buffer already in order becomes the log's array; a later
     [add] would grow into a fresh buffer and leave it untouched. *)
  let finish b ~duration ~threads ~volatile_addrs =
    Tm.Counter.incr ~by:b.shifts c_shifts;
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
  mutable t_end : int;
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
  let stacks : stack Index.Tid_tbl.t = Index.Tid_tbl.create 8 in
  let slot tid =
    match Index.Tid_tbl.find stacks tid with
    | s -> s
    | exception Not_found ->
      let s = { frames = []; pushed = 0 } in
      Index.Tid_tbl.add stacks tid s;
      s
  in
  let acc = ref init in
  (* Close the innermost frame of [s] matching [e], skipping mismatches. *)
  let rec pop s (e : Event.t) skipped = function
    | [] -> ()
    | frame :: rest when same_method frame.op e.op ->
      s.frames <- List.rev_append skipped rest;
      frame.t_end <- e.time;
      acc := on_close !acc frame
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
  Index.Tid_tbl.iter (fun _ s -> still_open := List.rev_append s.frames !still_open) stacks;
  (!acc, List.rev !still_open)

let distinct_addrs (t : t) = Index.distinct_addrs t.index

let iter_addr_accesses (t : t) f = Index.iter_addr_accesses t.index f

let pp ppf t =
  Format.fprintf ppf "log: %d events, %dus, %d threads@." (Array.length t.events)
    t.duration t.threads;
  Array.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) t.events
