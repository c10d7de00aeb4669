let cls = "System.Threading.Thread"

let m_start = Runtime.Method.make ~cls "Start"

let m_join = Runtime.Method.make ~cls "Join"

type t = {
  id : int;
  body : unit -> unit;
  delegate : Runtime.Method.t option;
  mutable completed : bool;
  done_queue : Runtime.Waitq.t;
}

let create ?delegate body =
  {
    id = Runtime.fresh_id ();
    body;
    delegate = Option.map (fun (cls, meth) -> Runtime.Method.make ~cls meth) delegate;
    completed = false;
    done_queue = Runtime.Waitq.create ();
  }

let id t = t.id

let start t =
  Runtime.call m_start ~obj:t.id (fun () ->
      ignore
        (Runtime.spawn ~name:(Printf.sprintf "thread-%d" t.id) (fun () ->
             (match t.delegate with
             | Some m -> Runtime.call m ~obj:t.id t.body
             | None -> t.body ());
             t.completed <- true;
             ignore (Runtime.wake_all t.done_queue))))

let join t =
  Runtime.call m_join ~obj:t.id (fun () ->
      while not t.completed do
        Runtime.block t.done_queue
      done)
