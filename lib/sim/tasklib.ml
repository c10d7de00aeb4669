let cls = "System.Threading.Tasks.Task"

let factory_cls = "System.Threading.Tasks.TaskFactory"

let m_start = Runtime.Method.make ~cls "Start"

let m_wait = Runtime.Method.make ~cls "Wait"

let m_run = Runtime.Method.make ~cls "Run"

let m_continue_with = Runtime.Method.make ~cls "ContinueWith"

let m_start_new = Runtime.Method.make ~cls:factory_cls "StartNew"

type t = {
  id : int;
  body : unit -> unit;
  delegate : Runtime.Method.t option;
  mutable completed : bool;
  mutable continuations : t list;
  done_queue : Runtime.Waitq.t;
}

let create ?delegate body =
  {
    id = Runtime.fresh_id ();
    body;
    delegate = Option.map (fun (cls, meth) -> Runtime.Method.make ~cls meth) delegate;
    completed = false;
    continuations = [];
    done_queue = Runtime.Waitq.create ();
  }

let id t = t.id

let is_completed t = t.completed

let run_delegate t =
  match t.delegate with
  | Some m -> Runtime.call m ~obj:t.id t.body
  | None -> t.body ()

let rec fork t =
  ignore
    (Runtime.spawn ~name:(Printf.sprintf "task-%d" t.id) (fun () ->
         run_delegate t;
         t.completed <- true;
         ignore (Runtime.wake_all t.done_queue);
         (* Completed continuations start now, on their own threads. *)
         let conts = t.continuations in
         t.continuations <- [];
         List.iter fork conts))

let start t = Runtime.call m_start ~obj:t.id (fun () -> fork t)

let wait t =
  Runtime.call m_wait ~obj:t.id (fun () ->
      while not t.completed do
        Runtime.block t.done_queue
      done)

let run ?delegate body =
  let t = create ?delegate body in
  Runtime.call m_run ~obj:t.id (fun () -> fork t);
  t

let continue_with t ?delegate body =
  let next = create ?delegate body in
  Runtime.call m_continue_with ~obj:next.id (fun () ->
      if t.completed then fork next else t.continuations <- next :: t.continuations);
  next

let start_new ?delegate body =
  let t = create ?delegate body in
  Runtime.call m_start_new ~obj:t.id (fun () -> fork t);
  t
