(* Bench-side tracing: spans recorded around each call the benchmark
   makes into a pipeline layer, named counts bumped at the same
   boundaries, and the self-time arithmetic that turns the span tree into
   per-layer CPU.  Nothing here reaches inside the program: a layer's
   span covers exactly one call to its public function.  The program's
   own span collector ([Sherlock_telemetry.Span]) is not used: it records
   wall-clock only, and it would also collect the spans the library opens
   internally. *)

module Perfetto = Sherlock_telemetry.Perfetto

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  wall0 : float;
  wall1 : float;
  cpu0 : float;
  cpu1 : float;
}

type t = {
  epoch : float;
  mutable next_id : int;
  mutable open_ids : int list;  (* innermost first *)
  mutable closed : span list;  (* newest first *)
  mutable root_cpu : float;  (* summed CPU of the closed root spans *)
  counts : (string, float) Hashtbl.t;
}

let create () =
  {
    epoch = Unix.gettimeofday ();
    next_id = 0;
    open_ids = [];
    closed = [];
    root_cpu = 0.0;
    counts = Hashtbl.create 64;
  }

(* CPU time of the process (user + system, microsecond resolution).  The
   benchmark runs one domain, so this is the pipeline's own CPU. *)
let cpu_now = Sys.time

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let wall0 = Unix.gettimeofday () in
  let cpu0 = cpu_now () in
  let close () =
    let cpu1 = cpu_now () in
    let wall1 = Unix.gettimeofday () in
    t.open_ids <- List.tl t.open_ids;
    if parent < 0 then t.root_cpu <- t.root_cpu +. (cpu1 -. cpu0);
    t.closed <- { id; name; parent; wall0; wall1; cpu0; cpu1 } :: t.closed
  in
  Fun.protect ~finally:close f

let root_cpu t = t.root_cpu

let add t name v =
  Hashtbl.replace t.counts name
    (v +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.0)

let count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0

let max t name v = Hashtbl.replace t.counts name (Float.max v (count t name))

let cpu s = s.cpu1 -. s.cpu0

(* Self CPU per span name: each span's CPU minus the CPU of its direct
   children, summed over every span of that name. *)
let self_cpu t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (cpu s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    t.closed;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        cpu s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    t.closed;
  fun name -> Option.value (Hashtbl.find_opt by_name name) ~default:0.0

(* One Perfetto slice per span on a single track, wall-clock placed, with
   the span's CPU and its parent in the args. *)
let write_perfetto t path =
  let us x = int_of_float ((x -. t.epoch) *. 1e6) in
  let slices =
    List.rev_map
      (fun s ->
        Perfetto.complete ~cat:"layer" ~name:s.name ~ts:(us s.wall0)
          ~dur:(us s.wall1 - us s.wall0) ~pid:0 ~tid:0
          ~args:
            [
              ("span_id", Perfetto.Int s.id);
              ("parent", Perfetto.Int s.parent);
              ("cpu_us", Perfetto.Int (int_of_float (cpu s *. 1e6)));
            ]
          ())
      t.closed
  in
  Perfetto.write path
    (Perfetto.process_name ~pid:0 "perfbench (bench-side layer spans)"
    :: Perfetto.thread_name ~pid:0 ~tid:0 "pipeline"
    :: slices)
