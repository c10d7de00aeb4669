let cls = "System.Threading.ThreadPool"

let m_queue_user_work_item = Runtime.Method.make ~cls "QueueUserWorkItem"

let workers = 3

type item = {
  id : int;
  body : unit -> unit;
  delegate : Runtime.Method.t option;
}

type pool = {
  queue : item Queue.t;
  wakeup : Runtime.Waitq.t;
  mutable started : bool;
}

let slot : pool Runtime.Slot.t = Runtime.Slot.create "threadpool"

let get_pool () =
  Runtime.Slot.find slot ~default:(fun () ->
      { queue = Queue.create (); wakeup = Runtime.Waitq.create (); started = false })

let worker_loop pool () =
  while true do
    match Queue.take_opt pool.queue with
    | Some item -> (
      match item.delegate with
      | Some m -> Runtime.call m ~obj:item.id item.body
      | None -> item.body ())
    | None -> Runtime.block pool.wakeup
  done

let ensure_workers pool =
  (* No effect between the check and the set, so this is atomic under the
     cooperative scheduler. *)
  if not pool.started then begin
    pool.started <- true;
    for i = 1 to workers do
      ignore
        (Runtime.spawn ~daemon:true
           ~name:(Printf.sprintf "pool-worker-%d" i)
           (worker_loop pool))
    done
  end

let queue_user_work_item ?delegate body =
  let pool = get_pool () in
  let delegate =
    Option.map (fun (cls, meth) -> Runtime.Method.make ~cls meth) delegate
  in
  let item = { id = Runtime.fresh_id (); body; delegate } in
  Runtime.call m_queue_user_work_item ~obj:item.id (fun () ->
      ensure_workers pool;
      Queue.push item pool.queue;
      ignore (Runtime.wake_one pool.wakeup))
