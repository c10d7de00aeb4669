type kind =
  | Read
  | Write
  | Begin
  | End

(* [id] last, so that polymorphic comparison still orders by name. *)
type t = {
  cls : string;
  member : string;
  kind : kind;
  id : int;
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

let kind_rank = function Read -> 0 | Write -> 1 | Begin -> 2 | End -> 3

(* The intern table: one record per distinct (cls, member, kind), keyed
   on the names; a new record's id is the table's size. *)
module Names = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = a.kind = b.kind && String.equal a.member b.member && String.equal a.cls b.cls
  let hash t = (((Hashtbl.hash t.cls * 31) + Hashtbl.hash t.member) * 4) + kind_rank t.kind
end)

let table = Names.create 256

(* A hit allocates only the probe.  A miss checks the names first, so a
   rejected name never enters.  The counter is looked up per new op
   (rare), so a registry reset cannot orphan it. *)
let make cls member kind =
  let key = { cls; member; kind; id = -1 } in
  match Names.find table key with
  | op -> op
  | exception Not_found ->
    check_name cls;
    check_name member;
    let op = { key with id = Names.length table } in
    Names.add table op op;
    Sherlock_telemetry.Metrics.(Counter.incr (counter "opid.interned"));
    op

let interned () = Names.length table

let read ~cls member = make cls member Read
let write ~cls member = make cls member Write
let enter ~cls member = make cls member Begin
let exit ~cls member = make cls member End

let with_kind t kind = if t.kind = kind then t else make t.cls t.member kind

let compare a b =
  if a == b then 0
  else
    match String.compare a.cls b.cls with
    | 0 -> (
      match String.compare a.member b.member with
      | 0 -> Int.compare (kind_rank a.kind) (kind_rank b.kind)
      | c -> c)
    | c -> c

let equal a b = a.id = b.id

let hash t = t.id

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
  with_kind t (match t.kind with Read -> Write | Write -> Read | Begin -> End | End -> Begin)

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

(* Open addressing on the id ([-1] marks a free key), at most half full,
   so a probe is an int mask and one or two compares. *)
module Numbering = struct
  type op = t

  type nonrec t = {
    mutable keys : int array;  (* op ids *)
    mutable nums : int array;  (* the number of the op in [keys] *)
    mutable ops : op array;  (* ops.(k): the op numbered [k] *)
    mutable length : int;
  }

  let create () = { keys = Array.make 64 (-1); nums = Array.make 64 0; ops = [||]; length = 0 }

  let rec slot keys mask id i =
    let k = Array.unsafe_get keys i in
    if k = id || k < 0 then i else slot keys mask id ((i + 1) land mask)

  let slot_of t id =
    let mask = Array.length t.keys - 1 in
    slot t.keys mask id (id land mask)

  let find t (op : op) =
    let i = slot_of t op.id in
    if Array.unsafe_get t.keys i = op.id then Array.unsafe_get t.nums i else -1

  let grow t =
    let keys = t.keys and nums = t.nums in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.nums <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun j id ->
        if id >= 0 then begin
          let i = slot_of t id in
          t.keys.(i) <- id;
          t.nums.(i) <- nums.(j)
        end)
      keys

  let number t (op : op) =
    match find t op with
    | k when k >= 0 -> k
    | _ ->
      if 2 * (t.length + 1) > Array.length t.keys then grow t;
      let i = slot_of t op.id and k = t.length in
      t.keys.(i) <- op.id;
      t.nums.(i) <- k;
      if k = Array.length t.ops then begin
        let ops = Array.make (max 16 (2 * k)) op in
        Array.blit t.ops 0 ops 0 k;
        t.ops <- ops
      end;
      t.ops.(k) <- op;
      t.length <- k + 1;
      k

  let length t = t.length

  let op t k = t.ops.(k)
end
