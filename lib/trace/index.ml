(* Query indices over one log's time-sorted event array, built once at
   construction.  Positions always refer to offsets into that array, so
   every per-thread / per-address view inherits the global (time, emission)
   order without storing events twice. *)

type per_thread = {
  positions : int array;
  times : int array;
  progress : int array;
  delayed_positions : int array;
  delayed_times : int array;
}

type t = {
  threads : (int, per_thread) Hashtbl.t;
  addrs_in_order : int array;
  accesses : (int, Event.t array) Hashtbl.t;
}

(* First index with [a.(i) >= v] ([Array.length a] if none). *)
let lower_bound (a : int array) v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* First index with [a.(i) > v]. *)
let upper_bound (a : int array) v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) <= v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let empty_thread =
  {
    positions = [||];
    times = [||];
    progress = [| 0 |];
    delayed_positions = [||];
    delayed_times = [||];
  }

(* Generic build over hashtable counters/cursors: works for arbitrary tid
   and address values, at ~4 hashtable probes per event. *)
let build_sparse (events : Event.t array) =
  let n = Array.length events in
  (* Counting pass: sizes per thread / address, address first-seen order. *)
  let tcount : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let dcount : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let acount : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let addr_order = ref [] in
  let bump tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r ->
      incr r;
      false
    | None ->
      Hashtbl.add tbl key (ref 1);
      true
  in
  for i = 0 to n - 1 do
    let e = events.(i) in
    ignore (bump tcount e.tid);
    if e.delayed_by > 0 then ignore (bump dcount e.tid);
    if Opid.is_access e.op then
      if bump acount e.target then addr_order := e.target :: !addr_order
  done;
  let threads = Hashtbl.create (Hashtbl.length tcount) in
  Hashtbl.iter
    (fun tid c ->
      let nd =
        match Hashtbl.find_opt dcount tid with Some r -> !r | None -> 0
      in
      Hashtbl.add threads tid
        {
          positions = Array.make !c 0;
          times = Array.make !c 0;
          progress = Array.make (!c + 1) 0;
          delayed_positions = Array.make nd 0;
          delayed_times = Array.make nd 0;
        })
    tcount;
  let accesses = Hashtbl.create (Hashtbl.length acount) in
  let dummy = Event.make ~time:0 ~tid:0 ~op:(Opid.read ~cls:"" "") () in
  Hashtbl.iter
    (fun addr c -> Hashtbl.add accesses addr (Array.make !c dummy))
    acount;
  (* Filling pass, with per-key cursors. *)
  let tcur : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let dcur : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let acur : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let cursor tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add tbl key r;
      r
  in
  for i = 0 to n - 1 do
    let e = events.(i) in
    let pt = Hashtbl.find threads e.tid in
    let c = cursor tcur e.tid in
    pt.positions.(!c) <- i;
    pt.times.(!c) <- e.time;
    pt.progress.(!c + 1) <-
      (pt.progress.(!c) + match e.op.kind with Opid.Read -> 0 | _ -> 1);
    incr c;
    if e.delayed_by > 0 then begin
      let c = cursor dcur e.tid in
      pt.delayed_positions.(!c) <- i;
      pt.delayed_times.(!c) <- e.time;
      incr c
    end;
    if Opid.is_access e.op then begin
      let arr = Hashtbl.find accesses e.target in
      let c = cursor acur e.target in
      arr.(!c) <- e;
      incr c
    end
  done;
  {
    threads;
    addrs_in_order = Array.of_list (List.rev !addr_order);
    accesses;
  }

(* The dense builds below use plain-array counters and cursors, for logs
   whose tids and addresses are dense small ints.  The hashtable probes
   of [build_sparse] dominate index construction (~200 ns/event measured
   on the stress log), which caps binary-trace ingest; here the
   per-event work is a handful of array reads and writes.  The resulting
   structure (and therefore every query) is identical — the hashtables
   are still populated, but once per thread/address instead of per
   event. *)

(* Allocation + fill from precomputed per-key counts: the shared second
   half of the dense builds.  [tcount]/[dcount] must bound every tid in
   [events] (lengths >= nt), [acount] every access target (length >= na),
   and the counts must be exact — the per-thread / per-address arrays are
   sized from them, so the cursor-driven writes below are in bounds by
   construction and use unsafe accesses (this loop runs per event on the
   ingest path). *)
let fill_dense (events : Event.t array) ~nt ~na ~tcount ~dcount ~acount
    ~addr_order_rev ~distinct =
  let n = Array.length events in
  let threads = Hashtbl.create 16 in
  (* [empty_thread] pads the inactive slots and is never written: active
     tids get fresh records below. *)
  let pts = Array.make nt empty_thread in
  for tid = 0 to nt - 1 do
    if tcount.(tid) > 0 then begin
      let pt =
        {
          positions = Array.make tcount.(tid) 0;
          times = Array.make tcount.(tid) 0;
          progress = Array.make (tcount.(tid) + 1) 0;
          delayed_positions = Array.make dcount.(tid) 0;
          delayed_times = Array.make dcount.(tid) 0;
        }
      in
      pts.(tid) <- pt;
      Hashtbl.add threads tid pt
    end
  done;
  let accesses = Hashtbl.create (max 16 distinct) in
  let dummy = Event.make ~time:0 ~tid:0 ~op:(Opid.read ~cls:"" "") () in
  let arrs = Array.make na [||] in
  for addr = 0 to na - 1 do
    if acount.(addr) > 0 then begin
      let a = Array.make acount.(addr) dummy in
      arrs.(addr) <- a;
      Hashtbl.add accesses addr a
    end
  done;
  let tcur = Array.make nt 0 and dcur = Array.make nt 0 in
  let acur = Array.make na 0 in
  for i = 0 to n - 1 do
    let e = Array.unsafe_get events i in
    let pt = Array.unsafe_get pts e.tid in
    let c = Array.unsafe_get tcur e.tid in
    Array.unsafe_set pt.positions c i;
    Array.unsafe_set pt.times c e.time;
    Array.unsafe_set pt.progress (c + 1)
      (Array.unsafe_get pt.progress c + match e.op.kind with Opid.Read -> 0 | _ -> 1);
    Array.unsafe_set tcur e.tid (c + 1);
    if e.delayed_by > 0 then begin
      let c = Array.unsafe_get dcur e.tid in
      Array.unsafe_set pt.delayed_positions c i;
      Array.unsafe_set pt.delayed_times c e.time;
      Array.unsafe_set dcur e.tid (c + 1)
    end;
    if (match e.op.kind with Opid.Read | Opid.Write -> true | _ -> false)
    then begin
      let a = Array.unsafe_get arrs e.target in
      let c = Array.unsafe_get acur e.target in
      Array.unsafe_set a c e;
      Array.unsafe_set acur e.target (c + 1)
    end
  done;
  {
    threads;
    addrs_in_order = Array.of_list (List.rev addr_order_rev);
    accesses;
  }

let build_dense (events : Event.t array) ~max_tid ~max_addr =
  let n = Array.length events in
  let nt = max_tid + 1 and na = max_addr + 1 in
  let tcount = Array.make nt 0 in
  let dcount = Array.make nt 0 in
  let acount = Array.make na 0 in
  let addr_order = ref [] in
  let distinct = ref 0 in
  (* The caller has verified every tid is in [0, max_tid] and every
     access target in [0, max_addr] (see the dispatching [build]), so
     the counter indexing is in bounds by construction. *)
  for i = 0 to n - 1 do
    let e = Array.unsafe_get events i in
    Array.unsafe_set tcount e.tid (Array.unsafe_get tcount e.tid + 1);
    if e.delayed_by > 0 then
      Array.unsafe_set dcount e.tid (Array.unsafe_get dcount e.tid + 1);
    if (match e.op.kind with Opid.Read | Opid.Write -> true | _ -> false)
    then begin
      if Array.unsafe_get acount e.target = 0 then begin
        addr_order := e.target :: !addr_order;
        incr distinct
      end;
      Array.unsafe_set acount e.target (Array.unsafe_get acount e.target + 1)
    end
  done;
  fill_dense events ~nt ~na ~tcount ~dcount ~acount
    ~addr_order_rev:!addr_order ~distinct:!distinct

(* Incremental front half of the dense build, for deserializers: they
   call [note] once per event from inside their decode loop, so the
   counting pass above happens for free while the event records are
   being materialized, and [finish] only runs the fill.  One full scan
   of the (cache-cold, multi-MB) record array less than [build]. *)
module Dense_builder = struct
  type t = {
    limit : int;
    mutable tcount : int array;
    mutable dcount : int array;
    mutable acount : int array;
    mutable addr_order_rev : int list;
    mutable distinct : int;
    mutable max_tid : int;
    mutable max_addr : int;
    mutable dense : bool;
  }

  let create ~events:n =
    {
      limit = (4 * n) + 1024;
      tcount = Array.make 64 0;
      dcount = Array.make 64 0;
      acount = Array.make 1024 0;
      addr_order_rev = [];
      distinct = 0;
      max_tid = -1;
      max_addr = -1;
      dense = true;
    }

  let grow a need =
    let len = ref (2 * Array.length a) in
    while !len <= need do
      len := 2 * !len
    done;
    let b = Array.make !len 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let note b ~tid ~target ~delayed ~is_access =
    if tid < 0 || tid > b.limit then b.dense <- false
    else begin
      if tid >= Array.length b.tcount then begin
        b.tcount <- grow b.tcount tid;
        b.dcount <- grow b.dcount tid
      end;
      Array.unsafe_set b.tcount tid (Array.unsafe_get b.tcount tid + 1);
      if delayed then
        Array.unsafe_set b.dcount tid (Array.unsafe_get b.dcount tid + 1);
      if tid > b.max_tid then b.max_tid <- tid
    end;
    if is_access then
      if target < 0 || target > b.limit then b.dense <- false
      else begin
        if target >= Array.length b.acount then b.acount <- grow b.acount target;
        let c = Array.unsafe_get b.acount target in
        if c = 0 then begin
          b.addr_order_rev <- target :: b.addr_order_rev;
          b.distinct <- b.distinct + 1
        end;
        Array.unsafe_set b.acount target (c + 1);
        if target > b.max_addr then b.max_addr <- target
      end

  let finish b events =
    if not b.dense then None
    else
      Some
        (fill_dense events ~nt:(b.max_tid + 1) ~na:(b.max_addr + 1)
           ~tcount:b.tcount ~dcount:b.dcount ~acount:b.acount
           ~addr_order_rev:b.addr_order_rev ~distinct:b.distinct)
end

(* The simulator allocates tids and heap addresses from one sequential
   counter, so real logs always take the dense path; the sparse path
   covers synthetic or foreign logs with arbitrary ids. *)
let build (events : Event.t array) =
  let n = Array.length events in
  let limit = (4 * n) + 1024 in
  let max_tid = ref (-1) and max_addr = ref (-1) in
  let dense = ref true in
  for i = 0 to n - 1 do
    let e = Array.unsafe_get events i in
    if e.tid < 0 || e.tid > limit then dense := false
    else if e.tid > !max_tid then max_tid := e.tid;
    if Opid.is_access e.op then
      if e.target < 0 || e.target > limit then dense := false
      else if e.target > !max_addr then max_addr := e.target
  done;
  if !dense then build_dense events ~max_tid:!max_tid ~max_addr:!max_addr
  else build_sparse events

let thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some pt -> pt
  | None -> empty_thread

(* Number of non-Read ("progress") events of [tid] with [lo <= time <= hi]. *)
let progress_count t ~tid ~lo ~hi =
  let pt = thread t tid in
  let i = lower_bound pt.times lo in
  let j = upper_bound pt.times hi in
  if j <= i then 0 else pt.progress.(j) - pt.progress.(i)

(* First (in time, ties by emission order) delayed event of [tid] with
   [lo <= time <= hi]. *)
let first_delayed_in t (events : Event.t array) ~tid ~lo ~hi =
  let pt = thread t tid in
  let i = lower_bound pt.delayed_times lo in
  if i < Array.length pt.delayed_times && pt.delayed_times.(i) <= hi then
    Some events.(pt.delayed_positions.(i))
  else None

let has_delayed_in t ~tid ~lo ~hi =
  let pt = thread t tid in
  let i = lower_bound pt.delayed_times lo in
  i < Array.length pt.delayed_times && pt.delayed_times.(i) <= hi

let thread_event_count t tid = Array.length (thread t tid).positions

let distinct_addrs t = Array.length t.addrs_in_order

let iter_addr_accesses t f =
  Array.iter (fun addr -> f addr (Hashtbl.find t.accesses addr)) t.addrs_in_order
