let cls = "System.Threading.Barrier"

let m_signal_and_wait = Runtime.Method.make ~cls "SignalAndWait"

type t = {
  id : int;
  participants : int;
  mutable arrived : int;
  mutable phase : int;
  queue : Runtime.Waitq.t;
}

let create participants =
  if participants <= 0 then invalid_arg "Barrier.create: participants must be positive";
  {
    id = Runtime.fresh_id ();
    participants;
    arrived = 0;
    phase = 0;
    queue = Runtime.Waitq.create ();
  }

let id t = t.id

let phase t = t.phase

let signal_and_wait t =
  Runtime.call m_signal_and_wait ~obj:t.id (fun () ->
      let my_phase = t.phase in
      t.arrived <- t.arrived + 1;
      if t.arrived = t.participants then begin
        t.arrived <- 0;
        t.phase <- t.phase + 1;
        ignore (Runtime.wake_all t.queue)
      end
      else
        while t.phase = my_phase do
          Runtime.block t.queue
        done)
