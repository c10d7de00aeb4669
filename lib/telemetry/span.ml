type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type closed = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  end_s : float;
  cpu_start_s : float;
  cpu_end_s : float;
  attrs : (string * value) list;
}

type collector = {
  epoch : float;
  mutable spans : closed list;  (* reverse close order *)
  mutable next_id : int;
}

type open_span = {
  oid : int;
  oparent : int option;
  oname : string;
  ostart : float;
  mutable oattrs : (string * value) list;  (* reverse attachment order *)
}

let create_collector () =
  { epoch = Unix.gettimeofday (); spans = []; next_id = 0 }

let epoch c = c.epoch

let closed_spans c = List.rev c.spans

let span_count c = List.length c.spans

let installed : collector option ref = ref None

let set_collector c = installed := c

let current_collector () = !installed

(* The open spans, innermost first. *)
let stack : open_span list ref = ref []

let open_depth () = List.length !stack

let add_attr k v =
  match (!installed, !stack) with
  | None, _ | _, [] -> ()
  | Some _, sp :: _ -> sp.oattrs <- (k, v) :: sp.oattrs

let open_span c ~name ~attrs =
  let parent = match !stack with [] -> None | p :: _ -> Some p.oid in
  let sp =
    {
      oid = c.next_id;
      oparent = parent;
      oname = name;
      ostart = Unix.gettimeofday ();
      oattrs = List.rev attrs;
    }
  in
  c.next_id <- c.next_id + 1;
  stack := sp :: !stack;
  sp

let close c sp ~cpu_start_s ~cpu_end_s =
  (stack := match !stack with _ :: tl -> tl | [] -> []);
  let span =
    {
      id = sp.oid;
      parent = sp.oparent;
      name = sp.oname;
      start_s = sp.ostart;
      end_s = Unix.gettimeofday ();
      cpu_start_s;
      cpu_end_s;
      attrs = List.rev sp.oattrs;
    }
  in
  c.spans <- span :: c.spans

(* With the registry on and no collector, the body is only timed: no
   span is opened, so [add_attr] stays a no-op. *)
let with_span ?(attrs = []) ~name f =
  match !installed with
  | None when not (Metrics.enabled ()) -> f ()
  | collector ->
    let cpu_start_s = Sys.time () in
    let opened = Option.map (fun c -> (c, open_span c ~name ~attrs)) collector in
    let finish () =
      let cpu_end_s = Sys.time () in
      if Metrics.enabled () then
        Metrics.Histogram.observe
          (Metrics.histogram ("span." ^ name ^ ".cpu_us"))
          ((cpu_end_s -. cpu_start_s) *. 1e6);
      Option.iter (fun (c, sp) -> close c sp ~cpu_start_s ~cpu_end_s) opened
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)
