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
  begins : int;
}

(* Tids are keys of several per-extraction tables; an int hash and
   [Int.equal] skip the polymorphic primitives on every lookup. *)
module Tid_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  threads : per_thread Tid_tbl.t;
  addrs_in_order : int array;
  accesses : int array array;  (* accesses.(k): positions of address addrs_in_order.(k) *)
}

(* [a] grown to a length past [k], at least doubled but at most [cap],
   the new slots set to [fill]. *)
let grow ?(cap = max_int) a k fill =
  let b = Array.make (min cap (max (k + 1) (max 64 (2 * Array.length a)))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* First-seen numbering of the tids or addresses of an [n]-event log.
   The simulator draws both from one sequential counter, so its ids are
   small and non-negative: an id in [0, 4n + 1024) indexes [small], at a
   few array reads per event.  Any other id (from a foreign trace, say)
   goes through [large]. *)
module Ids = struct
  type t = {
    limit : int;
    mutable small : int array;  (* small.(id): id's number, or -1 *)
    large : (int, int) Hashtbl.t;
    mutable ids : int array;  (* ids.(k): the id numbered k *)
    mutable counts : int array;  (* counts.(k): occurrences of number k *)
    mutable length : int;
  }

  let create n =
    {
      limit = (4 * n) + 1024;
      small = [||];
      large = Hashtbl.create 16;
      ids = [||];
      counts = [||];
      length = 0;
    }

  (* The number of [id], or -1 if it was never numbered. *)
  let find t id =
    if id >= 0 && id < Array.length t.small then Array.unsafe_get t.small id
    else if id >= 0 && id < t.limit then -1
    else match Hashtbl.find_opt t.large id with Some k -> k | None -> -1

  let fresh t id =
    let k = t.length in
    if k = Array.length t.ids then begin
      t.ids <- grow t.ids k 0;
      t.counts <- grow t.counts k 0
    end;
    t.ids.(k) <- id;
    t.length <- k + 1;
    if id >= 0 && id < t.limit then begin
      if id >= Array.length t.small then t.small <- grow ~cap:t.limit t.small id (-1);
      t.small.(id) <- k
    end
    else Hashtbl.add t.large id k;
    k

  let number t id =
    let k = find t id in
    let k = if k >= 0 then k else fresh t id in
    Array.unsafe_set t.counts k (Array.unsafe_get t.counts k + 1);
    k

  let length t = t.length

  let count t k = t.counts.(k)

  let id t k = t.ids.(k)
end

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
    begins = 0;
  }

let is_access (e : Event.t) =
  match e.op.kind with Opid.Read | Opid.Write -> true | Opid.Begin | Opid.End -> false

(* Two passes.  The first numbers tids and access targets in first-seen
   order and counts events per number; the second sizes every array
   exactly and fills it through per-number cursors.  The counts are
   exact, so the cursor writes are in bounds by construction and skip
   the bounds checks (this loop runs per event on the ingest path). *)
let build (events : Event.t array) =
  let n = Array.length events in
  let tids = Ids.create n and addrs = Ids.create n in
  (* Delayed events per tid number: few, so a table. *)
  let dcount = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let e = Array.unsafe_get events i in
    let k = Ids.number tids e.tid in
    if e.delayed_by > 0 then
      Hashtbl.replace dcount k (1 + Option.value ~default:0 (Hashtbl.find_opt dcount k));
    if is_access e then ignore (Ids.number addrs e.target)
  done;
  let pts =
    Array.init (Ids.length tids) (fun k ->
        let c = Ids.count tids k in
        let d = Option.value ~default:0 (Hashtbl.find_opt dcount k) in
        {
          positions = Array.make c 0;
          times = Array.make c 0;
          progress = Array.make (c + 1) 0;
          delayed_positions = Array.make d 0;
          delayed_times = Array.make d 0;
          begins = 0;
        })
  in
  let accesses = Array.init (Ids.length addrs) (fun k -> Array.make (Ids.count addrs k) 0) in
  let tcur = Array.make (Ids.length tids) 0 in
  let dcur = Array.make (Ids.length tids) 0 in
  let acur = Array.make (Ids.length addrs) 0 in
  let bcount = Array.make (Ids.length tids) 0 in
  for i = 0 to n - 1 do
    let e = Array.unsafe_get events i in
    let k = Ids.find tids e.tid in
    let pt = Array.unsafe_get pts k in
    let c = Array.unsafe_get tcur k in
    Array.unsafe_set pt.positions c i;
    Array.unsafe_set pt.times c e.time;
    let progressed =
      match e.op.kind with
      | Opid.Read -> 0
      | Opid.Begin ->
        Array.unsafe_set bcount k (Array.unsafe_get bcount k + 1);
        1
      | Opid.Write | Opid.End -> 1
    in
    Array.unsafe_set pt.progress (c + 1) (Array.unsafe_get pt.progress c + progressed);
    Array.unsafe_set tcur k (c + 1);
    if e.delayed_by > 0 then begin
      let c = Array.unsafe_get dcur k in
      Array.unsafe_set pt.delayed_positions c i;
      Array.unsafe_set pt.delayed_times c e.time;
      Array.unsafe_set dcur k (c + 1)
    end;
    if is_access e then begin
      let k = Ids.find addrs e.target in
      let c = Array.unsafe_get acur k in
      Array.unsafe_set (Array.unsafe_get accesses k) c i;
      Array.unsafe_set acur k (c + 1)
    end
  done;
  let threads = Tid_tbl.create (max 16 (Ids.length tids)) in
  Array.iteri (fun k pt -> Tid_tbl.add threads (Ids.id tids k) { pt with begins = bcount.(k) }) pts;
  { threads; addrs_in_order = Array.init (Ids.length addrs) (Ids.id addrs); accesses }

let thread t tid =
  match Tid_tbl.find t.threads tid with
  | pt -> pt
  | exception Not_found -> empty_thread

(* Number of non-Read ("progress") events of [tid] with [lo <= time <= hi]. *)
let progress_count t ~tid ~lo ~hi =
  let pt = thread t tid in
  let i = lower_bound pt.times lo in
  let j = upper_bound pt.times hi in
  if j <= i then 0 else pt.progress.(j) - pt.progress.(i)

(* Time of the first non-Read event of [tid] with [time > after], or
   [max_int]: the first prefix count above the one at [after]. *)
let first_progress_after t ~tid after =
  let pt = thread t tid in
  let i = upper_bound pt.times after in
  let base = pt.progress.(i) and n = Array.length pt.times in
  if pt.progress.(n) = base then max_int
  else
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if pt.progress.(mid) > base then go lo mid else go (mid + 1) hi
    in
    pt.times.(go (i + 1) n - 1)

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

let distinct_addrs t = Array.length t.addrs_in_order

let iter_addr_accesses t f =
  Array.iteri (fun k addr -> f addr t.accesses.(k)) t.addrs_in_order
