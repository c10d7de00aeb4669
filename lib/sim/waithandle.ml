let event_cls = "System.Threading.EventWaitHandle"

let wait_cls = "System.Threading.WaitHandle"

let m_set = Runtime.Method.make ~cls:event_cls "Set"

let m_reset = Runtime.Method.make ~cls:event_cls "Reset"

let m_wait_one = Runtime.Method.make ~cls:wait_cls "WaitOne"

let m_wait_all = Runtime.Method.make ~cls:wait_cls "WaitAll"

type t = {
  id : int;
  auto : bool;
  mutable signaled : bool;
  queue : Runtime.Waitq.t;
}

let make auto signaled =
  { id = Runtime.fresh_id (); auto; signaled; queue = Runtime.Waitq.create () }

let create_manual ?(signaled = false) () = make false signaled

let create_auto ?(signaled = false) () = make true signaled

let id t = t.id

let set t =
  Runtime.call m_set ~obj:t.id (fun () ->
      t.signaled <- true;
      if t.auto then ignore (Runtime.wake_one t.queue) else ignore (Runtime.wake_all t.queue))

let reset t =
  Runtime.call m_reset ~obj:t.id (fun () -> t.signaled <- false)

(* Consume a signal: true if the handle was signaled (auto handles reset). *)
let try_consume t =
  if t.signaled then begin
    if t.auto then t.signaled <- false;
    true
  end
  else false

let wait_one t =
  Runtime.call m_wait_one ~obj:t.id (fun () ->
      while not (try_consume t) do
        Runtime.block t.queue
      done)

let wait_all handles =
  Runtime.call m_wait_all ~obj:0 (fun () ->
      (* Wait for each in turn; manual handles stay signaled so order is
         immaterial, and auto handles are consumed exactly once. *)
      List.iter
        (fun t ->
          while not (try_consume t) do
            Runtime.block t.queue
          done)
        handles)
