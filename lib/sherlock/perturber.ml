open Sherlock_trace

type plan = int Opid.Map.t

let empty = Opid.Map.empty

let of_verdicts ~delay_us verdicts =
  Sherlock_telemetry.Span.with_span ~name:"plan-delays" @@ fun () ->
  let plan =
    List.fold_left
      (fun plan (v : Verdict.t) ->
        match v.role with
        | Verdict.Acquire -> plan
        | Verdict.Release ->
          let target =
            match v.op.kind with
            | Opid.Write | Opid.Read | Opid.Begin -> v.op
            | Opid.End -> Opid.with_kind v.op Opid.Begin
          in
          Opid.Map.add target delay_us plan)
      empty verdicts
  in
  Sherlock_telemetry.Span.add_attr "delayed_ops"
    (Sherlock_telemetry.Span.Int (Opid.Map.cardinal plan));
  Sherlock_telemetry.Span.add_attr "delay_us"
    (Sherlock_telemetry.Span.Int delay_us);
  plan

(* The plan numbered by op id, once per call: an event's lookup reads
   ints only, and its tables are as small as the plan. *)
let delay_before plan =
  let numbering = Opid.Numbering.create () in
  Opid.Map.iter (fun op _ -> ignore (Opid.Numbering.number numbering op)) plan;
  let delays = Array.of_list (List.map snd (Opid.Map.bindings plan)) in
  fun op -> match Opid.Numbering.find numbering op with -1 -> 0 | k -> delays.(k)

let bindings plan = Opid.Map.bindings plan

let size = Opid.Map.cardinal
