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

let close c sp =
  (stack := match !stack with _ :: tl -> tl | [] -> []);
  let span =
    {
      id = sp.oid;
      parent = sp.oparent;
      name = sp.oname;
      start_s = sp.ostart;
      end_s = Unix.gettimeofday ();
      attrs = List.rev sp.oattrs;
    }
  in
  c.spans <- span :: c.spans

let with_span ?(attrs = []) ~name f =
  match !installed with
  | None -> f ()
  | Some c ->
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
    (match f () with
    | v ->
      close c sp;
      v
    | exception e ->
      close c sp;
      raise e)
