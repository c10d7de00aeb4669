type kind =
  | Read
  | Write
  | Begin
  | End

type t = {
  cls : string;
  member : string;
  kind : kind;
}

(* Operation names flow into both trace formats — space-delimited text
   lines and length-prefixed binary table entries — and into every report.
   Whitespace or control characters would corrupt the text framing, so
   they are rejected here, at the only point with a useful stack, instead
   of surfacing as a serialization error long after the name was minted. *)
let check_name s =
  String.iter
    (fun c ->
      if c <= ' ' || c = '\x7f' then
        invalid_arg
          (Printf.sprintf "Opid: invalid character %C in operation name %S" c s))
    s

let make cls member kind =
  check_name cls;
  check_name member;
  { cls; member; kind }

let read ~cls member = make cls member Read
let write ~cls member = make cls member Write
let enter ~cls member = make cls member Begin
let exit ~cls member = make cls member End

let kind_rank = function Read -> 0 | Write -> 1 | Begin -> 2 | End -> 3

let compare a b =
  match String.compare a.cls b.cls with
  | 0 -> (
    match String.compare a.member b.member with
    | 0 -> Int.compare (kind_rank a.kind) (kind_rank b.kind)
    | c -> c)
  | c -> c

(* Physically shared names (every op of one call site) compare equal
   without reading their bytes. *)
let equal a b = a.kind = b.kind && String.equal a.member b.member && String.equal a.cls b.cls

let hash t = (((Hashtbl.hash t.cls * 31) + Hashtbl.hash t.member) * 4) + kind_rank t.kind

let is_access t = match t.kind with Read | Write -> true | Begin | End -> false

let is_frame t = not (is_access t)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Framework namespaces, mirroring the instrumentation whitelist of the
   paper's artifact.  Deliberately narrower than "System.*": applications
   like System.Linq.Dynamic live under System yet are application code. *)
let system_prefixes =
  [
    "System.Threading";
    "System.Collections";
    "System.IO";
    "System.Net";
    "System.Runtime";
    "Microsoft.";
  ]

let is_system t = List.exists (fun p -> has_prefix p t.cls) system_prefixes

let method_key t = t.cls ^ "::" ^ t.member

let field_key = method_key

let counterpart t =
  let kind =
    match t.kind with Read -> Write | Write -> Read | Begin -> End | End -> Begin
  in
  { t with kind }

let kind_name = function
  | Read -> "Read"
  | Write -> "Write"
  | Begin -> "Begin"
  | End -> "End"

let to_string t =
  match t.kind with
  | Read -> "Read-" ^ method_key t
  | Write -> "Write-" ^ method_key t
  | Begin -> method_key t ^ "-Begin"
  | End -> method_key t ^ "-End"

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
