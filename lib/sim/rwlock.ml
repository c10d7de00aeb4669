let cls = "System.Threading.ReaderWriterLock"

let method_ = Runtime.Method.make ~cls

let m_acquire_reader = method_ "AcquireReaderLock"

let m_release_reader = method_ "ReleaseReaderLock"

let m_acquire_writer = method_ "AcquireWriterLock"

let m_release_writer = method_ "ReleaseWriterLock"

let m_upgrade = method_ "UpgradeToWriterLock"

let m_downgrade = method_ "DowngradeFromWriterLock"

type t = {
  id : int;
  mutable readers : int;
  mutable writer : int option;
  queue : Runtime.Waitq.t;
}

let create () =
  { id = Runtime.fresh_id (); readers = 0; writer = None; queue = Runtime.Waitq.create () }

let rec wait_for t cond =
  if not (cond ()) then begin
    Runtime.block t.queue;
    wait_for t cond
  end

let acquire_reader t =
  Runtime.call m_acquire_reader ~obj:t.id (fun () ->
      wait_for t (fun () -> t.writer = None);
      t.readers <- t.readers + 1)

let release_reader t =
  Runtime.call m_release_reader ~obj:t.id (fun () ->
      t.readers <- t.readers - 1;
      if t.readers = 0 then ignore (Runtime.wake_all t.queue))

let acquire_writer t =
  Runtime.call m_acquire_writer ~obj:t.id (fun () ->
      let me = Runtime.self () in
      wait_for t (fun () -> t.writer = None && t.readers = 0);
      t.writer <- Some me)

let release_writer t =
  Runtime.call m_release_writer ~obj:t.id (fun () ->
      t.writer <- None;
      ignore (Runtime.wake_all t.queue))

let upgrade_to_writer_lock t =
  Runtime.call m_upgrade ~obj:t.id (fun () ->
      let me = Runtime.self () in
      (* Release the reader half first — this is the API's release role. *)
      t.readers <- t.readers - 1;
      if t.readers = 0 then ignore (Runtime.wake_all t.queue);
      (* ... then acquire the writer half — its acquire role. *)
      wait_for t (fun () -> t.writer = None && t.readers = 0);
      t.writer <- Some me)

let downgrade_from_writer_lock t =
  Runtime.call m_downgrade ~obj:t.id (fun () ->
      t.writer <- None;
      t.readers <- t.readers + 1;
      ignore (Runtime.wake_all t.queue))
