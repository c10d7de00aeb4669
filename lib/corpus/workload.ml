open Sherlock_sim

let poll cell times =
  let v = ref (Heap.read cell) in
  for _ = 2 to times do
    Runtime.cpu 3 15;
    v := Heap.read cell
  done;
  !v

let await_untraced cell pred =
  while not (pred (Heap.peek cell)) do
    Runtime.sleep (300 + Runtime.rand_int 500)
  done

let chores ~cls n =
  for i = 1 to n do
    let meth = if i mod 2 = 0 then "FormatValue" else "Validate" in
    Runtime.frame ~cls ~meth (fun () -> Runtime.sleep 9)
  done

let stress ~workers ~iters () =
  let cls = "Stress.Data" in
  let fields =
    Array.init 8 (fun i -> Heap.cell ~cls ~field:(Printf.sprintf "f%d" i) 0)
  in
  let flag = Heap.cell ~cls ~field:"flag" 0 in
  let lock = Monitor.create () in
  let threads =
    List.init workers (fun w ->
        Threadlib.create ~delegate:(cls, Printf.sprintf "Worker%d" w) (fun () ->
            for i = 1 to iters do
              let f = (i + w) mod Array.length fields in
              Monitor.with_lock lock (fun () ->
                  let v = Heap.read fields.(f) in
                  Heap.write fields.(f) (v + 1));
              if i mod 7 = 0 then Heap.write flag i else ignore (Heap.read flag)
            done))
  in
  List.iter Threadlib.start threads;
  List.iter Threadlib.join threads
