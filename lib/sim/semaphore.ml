let cls = "System.Threading.SemaphoreSlim"

let m_wait = Runtime.Method.make ~cls "Wait"

let m_release = Runtime.Method.make ~cls "Release"

type t = {
  id : int;
  mutable count : int;
  queue : Runtime.Waitq.t;
}

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative count";
  { id = Runtime.fresh_id (); count = n; queue = Runtime.Waitq.create () }

let id t = t.id

let count t = t.count

let wait t =
  Runtime.call m_wait ~obj:t.id (fun () ->
      while t.count = 0 do
        Runtime.block t.queue
      done;
      t.count <- t.count - 1)

let release t =
  Runtime.call m_release ~obj:t.id (fun () ->
      t.count <- t.count + 1;
      ignore (Runtime.wake_one t.queue))
