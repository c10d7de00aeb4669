type t = { samples : (string, float list ref) Hashtbl.t }

let create () = { samples = Hashtbl.create 64 }

(* The samples of one method key: [durations.(0 .. len - 1)] in End
   order. *)
type group = {
  key : string;
  mutable durations : float array;
  mutable len : int;
}

(* One trace's samples, gathered a closed frame at a time.  A key is
   rendered once per distinct [Begin] op, and ops whose keys collide
   (names containing ':') share one group. *)
type collector = {
  log : Log.t;
  group_of_op : group Opid.Tbl.t;
  group_of_key : (string, group) Hashtbl.t;
  mutable groups : group list;  (* latest first *)
}

let collector log =
  { log; group_of_op = Opid.Tbl.create 16; group_of_key = Hashtbl.create 16; groups = [] }

let group c op =
  match Opid.Tbl.find_opt c.group_of_op op with
  | Some g -> g
  | None ->
    let key = Opid.method_key op in
    let g =
      match Hashtbl.find_opt c.group_of_key key with
      | Some g -> g
      | None ->
        let g = { key; durations = Array.make 8 0.0; len = 0 } in
        Hashtbl.add c.group_of_key key g;
        c.groups <- g :: c.groups;
        g
    in
    Opid.Tbl.add c.group_of_op op g;
    g

(* Frames containing an injected Perturber delay are excluded: the
   artificial 100 ms would swamp the method's natural duration
   variation.  The delay test is a binary search over the log's
   delayed-event index. *)
let collect c (f : Log.frame) =
  if not
       (f.t_end > f.t_begin
       && Log.has_delayed_in c.log ~tid:f.tid ~lo:(f.t_begin + 1) ~hi:f.t_end)
  then begin
    let g = group c f.op in
    if g.len = Array.length g.durations then begin
      let bigger = Array.make (2 * g.len) 0.0 in
      Array.blit g.durations 0 bigger 0 g.len;
      g.durations <- bigger
    end;
    g.durations.(g.len) <- float_of_int (f.t_end - f.t_begin);
    g.len <- g.len + 1
  end

let collected c = List.rev_map (fun g -> (g.key, Array.sub g.durations 0 g.len)) c.groups

let samples_of_log log =
  let c = collector log in
  let (), _ = Log.fold_frames log ~init:() ~f:(fun () f -> collect c f) in
  collected c

(* Each sample goes in front of the key's earlier ones, so a key's list
   is latest first. *)
let add_samples (t : t) groups =
  List.iter
    (fun (key, samples) ->
      let r =
        match Hashtbl.find_opt t.samples key with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.add t.samples key r;
          r
      in
      r := Array.fold_left (fun acc d -> d :: acc) !r samples)
    groups

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
