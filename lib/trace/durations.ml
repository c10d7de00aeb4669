type t = { samples : (string, float list ref) Hashtbl.t }

let create () = { samples = Hashtbl.create 64 }

let add t key d =
  match Hashtbl.find_opt t.samples key with
  | Some r -> r := d :: !r
  | None -> Hashtbl.add t.samples key (ref [ d ])

(* One sample per closed method frame (see {!Log.fold_frames}), in End order.
   Frames containing an injected Perturber delay are excluded: the
   artificial 100 ms would swamp the method's natural duration variation.
   The delay test is a binary search over the log's delayed-event index. *)
let samples_of_log log =
  let out, _ =
    Log.fold_frames log ~init:[] ~f:(fun acc (f : Log.frame) ->
        if f.t_end > f.t_begin
           && Log.has_delayed_in log ~tid:f.tid ~lo:(f.t_begin + 1) ~hi:f.t_end
        then acc
        else (Opid.method_key f.op, float_of_int (f.t_end - f.t_begin)) :: acc)
  in
  List.rev out

let add_samples t pairs = List.iter (fun (key, d) -> add t key d) pairs

let record_log t log = add_samples t (samples_of_log log)

let samples t key =
  match Hashtbl.find_opt t.samples key with Some r -> !r | None -> []

let cv t key = Sherlock_util.Stats.coefficient_of_variation (samples t key)

let methods t = Hashtbl.fold (fun k _ acc -> k :: acc) t.samples []

(* Every method's CV is computed once per call, not once per ranked key. *)
let cv_percentiles t =
  let cvs = Hashtbl.create (Hashtbl.length t.samples) in
  Hashtbl.iter
    (fun k r ->
      Hashtbl.replace cvs k (Sherlock_util.Stats.coefficient_of_variation !r))
    t.samples;
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) cvs [] in
  fun key ->
    let c = match Hashtbl.find_opt cvs key with Some c -> c | None -> cv t key in
    Sherlock_util.Stats.percentile_rank all c
