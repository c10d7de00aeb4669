let cls = "System.Threading.Tasks.Dataflow.DataflowBlock"

let m_post = Runtime.Method.make ~cls "Post"

let m_receive = Runtime.Method.make ~cls "Receive"

type 'a t = {
  id : int;
  items : 'a Queue.t;
  queue : Runtime.Waitq.t;
}

let create () =
  { id = Runtime.fresh_id (); items = Queue.create (); queue = Runtime.Waitq.create () }

let id t = t.id

let length t = Queue.length t.items

let post t x =
  Runtime.call m_post ~obj:t.id (fun () ->
      Queue.push x t.items;
      ignore (Runtime.wake_one t.queue))

let receive t =
  Runtime.call m_receive ~obj:t.id (fun () ->
      let rec take () =
        match Queue.take_opt t.items with
        | Some x -> x
        | None ->
          Runtime.block t.queue;
          take ()
      in
      take ())

let try_receive t =
  Runtime.call m_receive ~obj:t.id (fun () -> Queue.take_opt t.items)
