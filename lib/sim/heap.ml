open Sherlock_trace

(* The cell's four op ids are created here, once, so an access passes a
   ready id to [Runtime.traced]; a bad name raises at the allocation. *)
type 'a t = {
  addr : int;
  rd : Opid.t;
  wr : Opid.t;
  get : Opid.t;
  set : Opid.t;
  mutable value : 'a;
}

let cell ~cls ~field ?(volatile = false) init =
  let rd = Opid.read ~cls field in
  let get = Opid.read ~cls ("get_" ^ field) in
  let addr = Runtime.fresh_id () in
  if volatile then Runtime.register_volatile addr;
  {
    addr;
    rd;
    wr = Opid.counterpart rd;
    get;
    set = Opid.write ~cls ("set_" ^ field);
    value = init;
  }

let read c =
  Runtime.traced c.rd ~target:c.addr;
  c.value

(* The event (and any injected delay) precedes the store, so delaying a
   release write really does delay its visibility to other threads. *)
let write c v =
  Runtime.traced c.wr ~target:c.addr;
  c.value <- v

let peek c = c.value

let poke c v = c.value <- v

let addr c = c.addr

let cls c = c.rd.cls

let field c = c.rd.member

let getter c =
  Runtime.traced c.get ~target:c.addr;
  c.value

let setter c v =
  Runtime.traced c.set ~target:c.addr;
  c.value <- v

let spin_until c pred =
  while not (pred (read c)) do
    Runtime.sleep (200 + Runtime.rand_int 400)
  done
