(* Format-dispatching front for trace files: sniffs the leading magic
   bytes and routes to the text codec below or to [Trace_bin].  The text
   format remains the import/debug path (and the default for [save]);
   the binary format is the fast path for large logs. *)

type format = Text | Binary

let magic = "sherlock-trace 1"

let kind_char = function
  | Opid.Read -> 'r'
  | Opid.Write -> 'w'
  | Opid.Begin -> 'b'
  | Opid.End -> 'e'

(* ------------------------------------------------------------------ *)
(* Text writer *)

(* Decimal digits of [-n] for [n <= 0], written straight into the
   buffer: [string_of_int] goes through a C [sprintf] and a fresh string
   per field.  Working on the non-positive side covers [min_int]. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let to_buffer (log : Log.t) =
  let buf = Buffer.create (256 + (Array.length log.events * 48)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "duration ";
  add_int buf log.duration;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "threads ";
  add_int buf log.threads;
  Buffer.add_char buf '\n';
  List.iter
    (fun addr ->
      Buffer.add_string buf "volatile ";
      add_int buf addr;
      Buffer.add_char buf '\n')
    (Log.volatile_list log);
  Array.iter
    (fun (e : Event.t) ->
      Buffer.add_string buf "e ";
      add_int buf e.time;
      Buffer.add_char buf ' ';
      add_int buf e.tid;
      Buffer.add_char buf ' ';
      Buffer.add_char buf (kind_char e.op.kind);
      Buffer.add_char buf ' ';
      add_int buf e.target;
      Buffer.add_char buf ' ';
      add_int buf e.delayed_by;
      Buffer.add_char buf ' ';
      Buffer.add_string buf e.op.cls;
      Buffer.add_char buf ' ';
      Buffer.add_string buf e.op.member;
      Buffer.add_char buf '\n')
    log.events;
  buf

(* ------------------------------------------------------------------ *)
(* Text reader *)

(* Raised inside the reader and turned into a positioned [Failure] at
   the line that caused it. *)
exception Malformed

exception Bad_name of string

(* Per-load op cache in front of the constructors, which share one
   record per name process-wide.  The key is never built: an
   open-addressed table hashes the kind and the line's "cls member"
   bytes in place and compares candidates against those bytes, so a
   repeated op costs one hash and one comparison, and only a new op
   allocates its two names. *)
type interner = {
  mutable slots : Opid.t array;
  mutable hashes : int array;  (* -1 marks an empty slot *)
  mutable count : int;
}

let interner () =
  { slots = Array.make 64 (Opid.read ~cls:"" ""); hashes = Array.make 64 (-1); count = 0 }

(* [s.[a, b)] is "cls member": the two names and the one space between. *)
let span_hash s kind a b =
  let h = ref (Char.code (kind_char kind)) in
  for i = a to b - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 29)) land max_int

let same_bytes name s a =
  let n = String.length name in
  let rec go i =
    i = n || (String.unsafe_get name i = String.unsafe_get s (a + i) && go (i + 1))
  in
  go 0

let rec probe t h mask i kind s c0 c1 m0 m1 =
  let hi = Array.unsafe_get t.hashes i in
  if hi < 0 then -1 - i
  else if
    let op = Array.unsafe_get t.slots i in
    hi = h
    && op.kind = kind
    && String.length op.cls = c1 - c0
    && String.length op.member = m1 - m0
    && same_bytes op.cls s c0
    && same_bytes op.member s m0
  then i
  else probe t h mask ((i + 1) land mask) kind s c0 c1 m0 m1

let grow t =
  let cap = 2 * Array.length t.slots in
  let slots = Array.make cap t.slots.(0) and hashes = Array.make cap (-1) in
  Array.iteri
    (fun i op ->
      let h = t.hashes.(i) in
      if h >= 0 then begin
        let j = ref (h land (cap - 1)) in
        while hashes.(!j) >= 0 do
          j := (!j + 1) land (cap - 1)
        done;
        slots.(!j) <- op;
        hashes.(!j) <- h
      end)
    t.slots;
  t.slots <- slots;
  t.hashes <- hashes

(* The op named by [kind], [s.[c0, c1)] and [s.[m0, m1)]; a new one is
   built by the checking constructor, so each distinct name is
   validated once per load.  Raises [Bad_name] on a bad name. *)
let intern t kind s c0 c1 m0 m1 =
  let h = span_hash s kind c0 m1 in
  let mask = Array.length t.slots - 1 in
  let i = probe t h mask (h land mask) kind s c0 c1 m0 m1 in
  if i >= 0 then Array.unsafe_get t.slots i
  else begin
    let cls = String.sub s c0 (c1 - c0) and member = String.sub s m0 (m1 - m0) in
    let make =
      match kind with
      | Opid.Read -> Opid.read
      | Write -> Opid.write
      | Begin -> Opid.enter
      | End -> Opid.exit
    in
    let op =
      try make ~cls member with Invalid_argument msg -> raise (Bad_name msg)
    in
    let i = -1 - i in
    t.slots.(i) <- op;
    t.hashes.(i) <- h;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then grow t;
    op
  end

(* Longest digit run that cannot overflow a 63-bit int. *)
let max_fast_digits = 18

(* The int of [s.[a, b)].  Plain decimal — an optional '-' and at most
   [max_fast_digits] digits — is read in place; anything else goes to
   [int_of_string_opt], so exactly the inputs [int_of_string] accepts
   are accepted. *)
let parse_int s a b =
  let d0 = if a < b && String.unsafe_get s a = '-' then a + 1 else a in
  let rec digits i n =
    if i = b then n
    else
      let c = Char.code (String.unsafe_get s i) - 48 in
      if c < 0 || c > 9 then -1 else digits (i + 1) ((n * 10) + c)
  in
  let n = if d0 < b && b - d0 <= max_fast_digits then digits d0 0 else -1 in
  if n >= 0 then if d0 > a then -n else n
  else
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some n -> n
    | None -> raise_notrace Malformed

let kind_of_char = function
  | 'r' -> Opid.Read
  | 'w' -> Opid.Write
  | 'b' -> Opid.Begin
  | 'e' -> Opid.End
  | _ -> raise_notrace Malformed

(* One pass over the string by index.  Each line's fields are located in
   place — single spaces separate them, so doubled, leading or trailing
   spaces make empty fields — and a line is accepted only in one of the
   documented shapes.  Errors carry file:line (1-based, counting the
   magic line) so a truncated or garbled trace points straight at the
   bad spot. *)
let of_string_text ?(path = "<string>") s =
  let len = String.length s in
  let ml = String.length magic in
  if not (String.starts_with ~prefix:magic s && (len = ml || s.[ml] = '\n')) then
    failwith (Printf.sprintf "%s:1: Trace_io: bad magic" path);
  let duration = ref 0 in
  let threads = ref 0 in
  let volatile_addrs = Hashtbl.create 8 in
  let events = Log.Builder.create () in
  let ops = interner () in
  (* Field [k] of the current line is [s.[starts.(k), stops.(k))]; a
     ninth field means the line has too many. *)
  let starts = Array.make 9 0 and stops = Array.make 9 0 in
  let int_field k = parse_int s starts.(k) stops.(k) in
  let field_is k lit =
    let a = starts.(k) in
    stops.(k) - a = String.length lit && same_bytes lit s a
  in
  let parse_line nf =
    if nf = 8 && field_is 0 "e" then begin
      if stops.(3) = starts.(3) then raise_notrace Malformed;
      let kind = kind_of_char (String.unsafe_get s starts.(3)) in
      let time = int_field 1 in
      let tid = int_field 2 in
      let target = int_field 4 in
      let delayed_by = int_field 5 in
      let op = intern ops kind s starts.(6) stops.(6) starts.(7) stops.(7) in
      Log.Builder.add events { Event.time; tid; op; target; delayed_by }
    end
    else if nf = 1 && stops.(0) = starts.(0) then ()
    else if nf = 2 && field_is 0 "duration" then duration := int_field 1
    else if nf = 2 && field_is 0 "threads" then threads := int_field 1
    else if nf = 2 && field_is 0 "volatile" then
      Hashtbl.replace volatile_addrs (int_field 1) ()
    else raise_notrace Malformed
  in
  let rec line a lineno =
    (* Scan to the end of the line, cutting fields at spaces. *)
    starts.(0) <- a;
    let nf = ref 1 and i = ref a in
    while !i < len && String.unsafe_get s !i <> '\n' do
      if String.unsafe_get s !i = ' ' && !nf < 9 then begin
        stops.(!nf - 1) <- !i;
        starts.(!nf) <- !i + 1;
        incr nf
      end;
      incr i
    done;
    let b = !i in
    stops.(!nf - 1) <- b;
    (match parse_line !nf with
    | () -> ()
    | exception Malformed ->
      failwith
        (Printf.sprintf "%s:%d: Trace_io: malformed line: %s" path lineno
           (String.sub s a (b - a)))
    | exception Bad_name msg ->
      failwith (Printf.sprintf "%s:%d: Trace_io: %s" path lineno msg));
    if b < len then line (b + 1) (lineno + 1)
  in
  if ml < len then line (ml + 1) 2;
  Log.Builder.finish events ~duration:!duration ~threads:!threads ~volatile_addrs

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let sniff s =
  let bl = String.length Trace_bin.magic in
  if String.length s >= bl && String.sub s 0 bl = Trace_bin.magic then Binary
  else Text

let format_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = min (in_channel_length ic) (String.length Trace_bin.magic) in
      sniff (really_input_string ic n))

let format_name = function Text -> "text" | Binary -> "binary"

let to_string ?(format = Text) log =
  match format with
  | Text -> Buffer.contents (to_buffer log)
  | Binary -> Trace_bin.to_string log

let of_string ?path s =
  match sniff s with
  | Binary -> Trace_bin.of_string ?path s
  | Text -> of_string_text ?path s

let save ?(format = Text) log path =
  Sherlock_util.Atomic_file.write path (fun oc ->
      match format with
      | Binary -> Trace_bin.output oc log
      | Text -> Buffer.output_buffer oc (to_buffer log))

let load path =
  match format_of_file path with
  | Binary -> Trace_bin.load path
  | Text ->
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string_text ~path (really_input_string ic (in_channel_length ic)))
