type t = {
  events : Event.t array;
  duration : int;
  threads : int;
  volatile_addrs : (int, unit) Hashtbl.t;
  index : Index.t;
}

(* The simulator emits events as threads execute, which is not globally
   time-sorted (thread-local clocks drift); analyses want time order.
   [arr] is taken by ownership and sorted in place. *)
let of_unsorted_array arr ~duration ~threads ~volatile_addrs =
  let stable = Array.mapi (fun i e -> (i, e)) arr in
  Array.sort
    (fun (i, (a : Event.t)) (j, b) ->
      match Int.compare a.time b.time with 0 -> Int.compare i j | c -> c)
    stable;
  let events = Array.map snd stable in
  { events; duration; threads; volatile_addrs; index = Index.build events }

let create ~events ~duration ~threads ~volatile_addrs =
  of_unsorted_array (Array.of_list events) ~duration ~threads ~volatile_addrs

(* Deserializers hand back the event array in the order it was written —
   the binary format stores the time-sorted array verbatim — so the sort
   is redundant there.  The claim is verified in one linear pass; if a
   hand-edited or corrupt file breaks it, we fall back to sorting rather
   than hand the analyses an out-of-order log.  [arr] is taken by
   ownership either way. *)
let of_sorted_array arr ~duration ~threads ~volatile_addrs =
  let sorted = ref true in
  for i = 1 to Array.length arr - 1 do
    if (Array.unsafe_get arr (i - 1)).Event.time > (Array.unsafe_get arr i).Event.time
    then sorted := false
  done;
  if not !sorted then of_unsorted_array arr ~duration ~threads ~volatile_addrs
  else { events = arr; duration; threads; volatile_addrs; index = Index.build arr }

(* A fresh value every call: the volatile-address table is mutable, so a
   shared [empty] would leak one caller's mutations into another's log. *)
let empty () =
  {
    events = [||];
    duration = 0;
    threads = 0;
    volatile_addrs = Hashtbl.create 1;
    index = Index.build [||];
  }

module Builder = struct
  type t = {
    mutable buf : Event.t array;
    mutable len : int;
  }

  let dummy = Event.make ~time:0 ~tid:0 ~op:(Opid.read ~cls:"" "") ()

  let create () = { buf = Array.make 256 dummy; len = 0 }

  let length b = b.len

  let add b e =
    if b.len = Array.length b.buf then begin
      let bigger = Array.make (2 * b.len) dummy in
      Array.blit b.buf 0 bigger 0 b.len;
      b.buf <- bigger
    end;
    b.buf.(b.len) <- e;
    b.len <- b.len + 1

  let finish b ~duration ~threads ~volatile_addrs =
    of_unsorted_array (Array.sub b.buf 0 b.len) ~duration ~threads
      ~volatile_addrs
end

let length t = Array.length t.events

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
}

(* Frames match on the rendered [Opid.method_key], compared as strings:
   the key is not injective when names contain ':', and every consumer
   has always matched on it.  Equal names imply equal keys, so the common
   case allocates nothing. *)
let same_method (a : Opid.t) (b : Opid.t) =
  (String.equal a.member b.member && String.equal a.cls b.cls)
  || String.equal (Opid.method_key a) (Opid.method_key b)

(* The one per-thread frame matcher behind window open-frame candidates,
   method durations, and the timeline's frame slices.  Closed frames are
   handed to [on_close] as they close rather than collected, so a long
   log's frames are never all live at once. *)
let fold_frames t ~init ~f:on_close =
  let stacks : (int, (Opid.t * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let slot tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let acc = ref init in
  Array.iter
    (fun (e : Event.t) ->
      match e.op.kind with
      | Opid.Begin ->
        let s = slot e.tid in
        s := (e.op, e.time) :: !s
      | Opid.End ->
        let s = slot e.tid in
        let rec pop skipped = function
          | [] -> None
          | ((op, _) as frame) :: rest when same_method op e.op ->
            Some (frame, List.rev_append skipped rest)
          | frame :: rest -> pop (frame :: skipped) rest
        in
        (match pop [] !s with
        | Some ((op, t_begin), rest) ->
          s := rest;
          acc := on_close !acc { tid = e.tid; op; t_begin; t_end = e.time }
        | None -> ())
      | Opid.Read | Opid.Write -> ())
    t.events;
  let still_open = ref [] in
  Hashtbl.iter
    (fun tid s ->
      List.iter
        (fun (op, t_begin) ->
          still_open := { tid; op; t_begin; t_end = max_int } :: !still_open)
        !s)
    stacks;
  (!acc, List.rev !still_open)

let distinct_addrs t = Index.distinct_addrs t.index

let accesses_of_addr t addr = Index.accesses_of_addr t.index addr

let iter_addr_accesses t f = Index.iter_addr_accesses t.index f

let addrs_in_order t = Index.addrs_in_order t.index

let pp ppf t =
  Format.fprintf ppf "log: %d events, %dus, %d threads@." (Array.length t.events)
    t.duration t.threads;
  Array.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) t.events
