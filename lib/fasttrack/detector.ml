open Sherlock_trace

type race = {
  field : string;
  addr : int;
  first_op : Opid.t;
  second_op : Opid.t;
  time : int;
}

type report = {
  races : race list;
  checked_accesses : int;
}

(* Per-address access metadata: last-writer epoch plus a full read clock
   (FastTrack's read-share representation, simplified to always-VC for
   reads — adequate at simulator scale). *)
type var_state = {
  mutable write_tid : int;
  mutable write_clock : int;
  mutable write_op : Opid.t option;
  reads : Vc.t;
  mutable read_ops : (int * Opid.t) list; (* tid, op of reads since last write *)
}

type channel_key =
  | K_target of int
  | K_class of string

let key_of_channel = function
  | Sync_model.Target t -> K_target t
  | Sync_model.Class c -> K_class c

let run (model : Sync_model.t) (log : Log.t) =
  let nthreads = log.threads + 1 in
  let clocks : (int, Vc.t) Hashtbl.t = Hashtbl.create 16 in
  let clock_of tid =
    match Hashtbl.find_opt clocks tid with
    | Some c -> c
    | None ->
      let c = Vc.create nthreads in
      Vc.inc c tid;
      Hashtbl.add clocks tid c;
      c
  in
  let channels : (channel_key, Vc.t) Hashtbl.t = Hashtbl.create 32 in
  let channel key =
    match Hashtbl.find_opt channels key with
    | Some c -> c
    | None ->
      let c = Vc.create nthreads in
      Hashtbl.add channels key c;
      c
  in
  (* Exact size from the access index: one slot per traced address. *)
  let vars : (int, var_state) Hashtbl.t =
    Hashtbl.create (max 16 (Log.distinct_addrs log))
  in
  let var addr =
    match Hashtbl.find_opt vars addr with
    | Some v -> v
    | None ->
      let v =
        {
          write_tid = -1;
          write_clock = 0;
          write_op = None;
          reads = Vc.create nthreads;
          read_ops = [];
        }
      in
      Hashtbl.add vars addr v;
      v
  in
  (* Open frames whose Begin was an acquire, per thread: the matching End
     re-joins the channels. *)
  let pending_joins : (int, (string * Sync_model.channel list) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let pending tid =
    match Hashtbl.find_opt pending_joins tid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add pending_joins tid r;
      r
  in
  let races = ref [] in
  let seen_fields = Hashtbl.create 8 in
  let checked = ref 0 in
  let report_race ~field ~addr ~first_op ~second_op ~time =
    if not (Hashtbl.mem seen_fields field) then begin
      Hashtbl.add seen_fields field ();
      races := { field; addr; first_op; second_op; time } :: !races
    end
  in
  let acquire tid chs =
    let c = clock_of tid in
    List.iter (fun ch -> Vc.join c (channel (key_of_channel ch))) chs
  in
  let release tid chs =
    let c = clock_of tid in
    List.iter (fun ch -> Vc.join (channel (key_of_channel ch)) c) chs;
    Vc.inc c tid
  in
  let check_access (e : Event.t) =
    incr checked;
    (* A blocking acquire takes effect somewhere inside its frame (the
       trace cannot say exactly where), so while any acquire-Begin frame
       is open we re-join its channels before every race check. *)
    List.iter (fun (_, chs) -> acquire e.tid chs) !(pending e.tid);
    let v = var e.target in
    let c = clock_of e.tid in
    let field = Opid.field_key e.op in
    let write_ordered () =
      v.write_tid < 0
      || v.write_tid = e.tid
      || Vc.epoch_leq ~tid:v.write_tid ~clock:v.write_clock c
    in
    match e.op.kind with
    | Opid.Read ->
      if not (write_ordered ()) then
        report_race ~field ~addr:e.target
          ~first_op:(Option.value ~default:e.op v.write_op)
          ~second_op:e.op ~time:e.time;
      if Vc.get v.reads e.tid < Vc.get c e.tid then begin
        Vc.join v.reads c;
        (* Track only this thread's contribution for reporting. *)
        v.read_ops <- (e.tid, e.op) :: v.read_ops
      end
    | Opid.Write ->
      if not (write_ordered ()) then
        report_race ~field ~addr:e.target
          ~first_op:(Option.value ~default:e.op v.write_op)
          ~second_op:e.op ~time:e.time
      else if not (Vc.leq v.reads c) then begin
        let prior =
          match List.find_opt (fun (t, _) -> t <> e.tid) v.read_ops with
          | Some (_, op) -> op
          | None -> e.op
        in
        report_race ~field ~addr:e.target ~first_op:prior ~second_op:e.op ~time:e.time
      end;
      v.write_tid <- e.tid;
      v.write_clock <- Vc.get c e.tid;
      v.write_op <- Some e.op;
      v.read_ops <- []
    | Opid.Begin | Opid.End -> ()
  in
  Log.iter
    (fun (e : Event.t) ->
      let action = model.classify e in
      (match (action, e.op.kind) with
      | Sync_model.Acquire chs, Opid.Begin ->
        acquire e.tid chs;
        (pending e.tid) := (Opid.method_key e.op, chs) :: !(pending e.tid)
      | Sync_model.Acquire chs, (Opid.Read | Opid.End | Opid.Write) -> acquire e.tid chs
      | Sync_model.Release chs, Opid.End -> release e.tid chs
      | Sync_model.Release chs, (Opid.Write | Opid.Begin | Opid.Read) ->
        release e.tid chs
      | Sync_model.No_sync, _ -> ());
      (* End-releases also publish at the method's Begin; symmetrically,
         Begin-acquires re-join at the End.  The first is handled by
         asking the model about the End op when we see the Begin; the
         second via the pending-joins stack. *)
      (match e.op.kind with
      | Opid.Begin ->
        let end_event = { e with op = Opid.with_kind e.op Opid.End } in
        (match model.classify end_event with
        | Sync_model.Release chs -> release e.tid chs
        | Sync_model.Acquire _ | Sync_model.No_sync -> ())
      | Opid.End ->
        let key = Opid.method_key e.op in
        let p = pending e.tid in
        let rec pop acc = function
          | [] -> None
          | (k, chs) :: rest when k = key -> Some (chs, List.rev_append acc rest)
          | frame :: rest -> pop (frame :: acc) rest
        in
        (match pop [] !p with
        | Some (chs, rest) ->
          p := rest;
          acquire e.tid chs
        | None -> ())
      | Opid.Read | Opid.Write -> ());
      if Opid.is_access e.op && action = Sync_model.No_sync then check_access e)
    log;
  { races = List.rev !races; checked_accesses = !checked }

let first_race report =
  match report.races with [] -> None | r :: _ -> Some r
