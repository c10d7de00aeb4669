open Sherlock_trace

let cls = "System.Collections.Generic.Dictionary"

let op_add = Opid.write ~cls "Add"

let op_try_get_value = Opid.read ~cls "TryGetValue"

let op_count = Opid.read ~cls "Count"

type ('k, 'v) t = {
  id : int;
  table : ('k, 'v) Hashtbl.t;
}

let create () = { id = Runtime.fresh_id (); table = Hashtbl.create 16 }

let id t = t.id

let add t k v =
  Runtime.traced op_add ~target:t.id;
  Hashtbl.replace t.table k v

let try_get_value t k =
  Runtime.traced op_try_get_value ~target:t.id;
  Hashtbl.find_opt t.table k

let count t =
  Runtime.traced op_count ~target:t.id;
  Hashtbl.length t.table
