let cls = "System.Threading.Monitor"

let m_enter = Runtime.Method.make ~cls "Enter"

let m_exit = Runtime.Method.make ~cls "Exit"

exception Not_owner of {
  lock : int;
  owner : int option;
  caller : int;
}

let () =
  Printexc.register_printer (function
    | Not_owner { lock; owner; caller } ->
      let owner =
        match owner with
        | None -> "unlocked"
        | Some o -> Printf.sprintf "owned by tid %d" o
      in
      Some
        (Printf.sprintf "Monitor.Not_owner(lock=%d, %s, caller=tid %d)" lock
           owner caller)
    | _ -> None)

type t = {
  id : int;
  mutable owner : int option;
  mutable depth : int;
  queue : Runtime.Waitq.t;
}

let create () =
  { id = Runtime.fresh_id (); owner = None; depth = 0; queue = Runtime.Waitq.create () }

let enter t =
  Runtime.call m_enter ~obj:t.id (fun () ->
      let me = Runtime.self () in
      let rec loop () =
        match t.owner with
        | None ->
          t.owner <- Some me;
          t.depth <- 1
        | Some o when o = me -> t.depth <- t.depth + 1
        | Some _ ->
          Runtime.block t.queue;
          loop ()
      in
      loop ())

let exit t =
  Runtime.call m_exit ~obj:t.id (fun () ->
      let me = Runtime.self () in
      (match t.owner with
      | Some o when o = me -> ()
      | owner -> raise (Not_owner { lock = t.id; owner; caller = me }));
      t.depth <- t.depth - 1;
      if t.depth = 0 then begin
        t.owner <- None;
        ignore (Runtime.wake_one t.queue)
      end)

let with_lock t f =
  enter t;
  match f () with
  | v ->
    exit t;
    v
  | exception e ->
    exit t;
    raise e
