open Sherlock_trace

let cls = "System.Collections.Generic.List"

let op_add = Opid.write ~cls "Add"

let op_contains = Opid.read ~cls "Contains"

let op_count = Opid.read ~cls "Count"

type 'a t = {
  id : int;
  mutable items : 'a list;
}

let create () = { id = Runtime.fresh_id (); items = [] }

let id t = t.id

let add t x =
  Runtime.traced op_add ~target:t.id;
  t.items <- x :: t.items

let contains t x =
  Runtime.traced op_contains ~target:t.id;
  List.mem x t.items

let count t =
  Runtime.traced op_count ~target:t.id;
  List.length t.items

let to_list t = List.rev t.items
