let cls = "System.Collections.Concurrent.ConcurrentDictionary"

let m_get_or_add = Runtime.Method.make ~cls "GetOrAdd"

type ('k, 'v) t = {
  id : int;
  table : ('k, 'v) Hashtbl.t;
  mutable locked : bool;
  queue : Runtime.Waitq.t;
}

let create () =
  {
    id = Runtime.fresh_id ();
    table = Hashtbl.create 16;
    locked = false;
    queue = Runtime.Waitq.create ();
  }

let id t = t.id

(* Internal, untraced lock: the paper's instrumentation does not see the
   dictionary's innards either — only the GetOrAdd call sites. *)
let lock t =
  while t.locked do
    Runtime.block t.queue
  done;
  t.locked <- true

let unlock t =
  t.locked <- false;
  ignore (Runtime.wake_one t.queue)

let get_or_add t key ~delegate f =
  Runtime.call m_get_or_add ~obj:t.id (fun () ->
      lock t;
      let v =
        match Hashtbl.find_opt t.table key with
        | Some v -> v
        | None ->
          let dcls, dmeth = delegate in
          let v = Runtime.frame ~cls:dcls ~meth:dmeth ~obj:t.id f in
          Hashtbl.replace t.table key v;
          v
      in
      unlock t;
      v)

let find_opt t key = Hashtbl.find_opt t.table key
