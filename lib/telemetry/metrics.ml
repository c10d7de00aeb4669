let enabled_flag = ref false

let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

(* Counter and gauge cells are plain ints: only the main thread writes
   them, and the snapshot ticker's systhread reads whole words. *)
module Counter = struct
  type t = { name : string; mutable v : int }

  let make name = { name; v = 0 }

  let name t = t.name

  let incr ?(by = 1) t = t.v <- t.v + by

  let value t = t.v
end

module Histogram = struct
  (* Bucket [i] counts observations in (2^(i-1), 2^i]; bucket 0 counts
     everything <= 1 (including non-positive values). *)
  let num_buckets = 63

  type t = {
    name : string;
    mutex : Mutex.t;
        (* [observe] on the main thread against [export] on the snapshot
           ticker's systhread: [observe] allocates (the boxed [sum]), so
           the ticker can run in the middle of it *)
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
    buckets : int array;
  }

  let make name =
    {
      name;
      mutex = Mutex.create ();
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
      buckets = Array.make num_buckets 0;
    }

  let name t = t.name

  let bucket_of v =
    if v <= 1.0 then 0
    else
      let i = int_of_float (ceil (Float.log2 v)) in
      if i < 0 then 0 else if i >= num_buckets then num_buckets - 1 else i

  let observe t v =
    Mutex.lock t.mutex;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1;
    Mutex.unlock t.mutex

  let observe_int t v = observe t (float_of_int v)

  let count t = t.count

  let sum t = t.sum

  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count

  let min_value t = t.min_v

  let max_value t = t.max_v

  type export = {
    e_count : int;
    e_sum : float;
    e_min : float;
    e_max : float;
    e_buckets : int array;
  }

  (* A coherent copy of the whole histogram, taken under its mutex: the
     snapshot/OpenMetrics paths must not observe a count that excludes
     an observation already folded into a bucket (or vice versa). *)
  let export t =
    Mutex.lock t.mutex;
    let e =
      {
        e_count = t.count;
        e_sum = t.sum;
        e_min = t.min_v;
        e_max = t.max_v;
        e_buckets = Array.copy t.buckets;
      }
    in
    Mutex.unlock t.mutex;
    e

  let percentile e p =
    if e.e_count = 0 then nan
    else begin
      let rank = p *. float_of_int e.e_count in
      let rec go i seen =
        let seen = seen + e.e_buckets.(i) in
        if float_of_int seen >= rank || i = Array.length e.e_buckets - 1 then i
        else go (i + 1) seen
      in
      let i = go 0 0 in
      let upper = if i = 0 then 1.0 else Float.pow 2.0 (float_of_int i) in
      (* Clamped into the observed range when it is known (a histogram
         read back from an exposition has no exact min/max). *)
      if e.e_min <= e.e_max then Float.min e.e_max (Float.max e.e_min upper) else upper
    end
end

module Gauge = struct
  (* A gauge is a point-in-time level, not an accumulation: eta-file
     length, heap words.  Two sources: a [Cell] the instrumented code
     sets/adds to, and a [Fn] callback evaluated at read time (GC
     statistics) so the producer never has to push updates. *)
  type source = Cell of int ref | Fn of (unit -> int)

  type t = { name : string; source : source }

  let make name = { name; source = Cell (ref 0) }

  let make_fn name f = { name; source = Fn f }

  let name t = t.name

  let set t v = match t.source with Cell c -> c := v | Fn _ -> ()

  let add t d = match t.source with Cell c -> c := !c + d | Fn _ -> ()

  let value t =
    match t.source with
    | Cell c -> !c
    | Fn f -> ( try f () with _ -> 0)
end

type registry = {
  mutex : Mutex.t;
      (* registration on the main thread against listing on the
         snapshot ticker's systhread: a [Hashtbl.add] that resizes
         allocates, so the ticker can run in the middle of it *)
  counters : (string, Counter.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
  }

let default = create ()

let get_or_create reg tbl make name =
  Mutex.lock reg.mutex;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let v = make name in
      Hashtbl.add tbl name v;
      v
  in
  Mutex.unlock reg.mutex;
  v

let counter ?(registry = default) name =
  get_or_create registry registry.counters Counter.make name

let histogram ?(registry = default) name =
  get_or_create registry registry.histograms Histogram.make name

let gauge ?(registry = default) name =
  get_or_create registry registry.gauges Gauge.make name

(* Unlike [gauge], a callback registration always installs the given
   closure: re-installing (after a [reset], or with a closure over a
   fresher resource) must not silently keep reading the stale one. *)
let gauge_fn ?(registry = default) name f =
  Mutex.lock registry.mutex;
  let g = Gauge.make_fn name f in
  Hashtbl.replace registry.gauges name g;
  Mutex.unlock registry.mutex;
  g

let sorted_values tbl name_of =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> String.compare (name_of a) (name_of b))

let counters reg = sorted_values reg.counters Counter.name

let histograms reg = sorted_values reg.histograms Histogram.name

let gauges reg = sorted_values reg.gauges Gauge.name

let reset reg =
  Mutex.lock reg.mutex;
  Hashtbl.reset reg.counters;
  Hashtbl.reset reg.histograms;
  Hashtbl.reset reg.gauges;
  Mutex.unlock reg.mutex

let pp_summary ppf reg =
  Format.fprintf ppf "@[<v>telemetry counters:@,";
  List.iter
    (fun c -> Format.fprintf ppf "  %-42s %d@," (Counter.name c) (Counter.value c))
    (counters reg);
  (match gauges reg with
  | [] -> ()
  | gs ->
    Format.fprintf ppf "telemetry gauges:@,";
    List.iter
      (fun g -> Format.fprintf ppf "  %-42s %d@," (Gauge.name g) (Gauge.value g))
      gs);
  Format.fprintf ppf "telemetry histograms:@,";
  List.iter
    (fun h ->
      let e = Histogram.export h in
      Format.fprintf ppf
        "  %-42s n=%d mean=%.1f min=%.1f max=%.1f p50<=%.0f p95<=%.0f \
         p99<=%.0f@,"
        (Histogram.name h) e.e_count
        (if e.e_count = 0 then nan else e.e_sum /. float_of_int e.e_count)
        e.e_min e.e_max
        (Histogram.percentile e 0.5)
        (Histogram.percentile e 0.95)
        (Histogram.percentile e 0.99))
    (histograms reg);
  Format.fprintf ppf "@]"
