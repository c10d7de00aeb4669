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

(* The text being written: bytes [0, pos) of [buf], which doubles when a
   line would not fit.  Each line reserves its longest length first, so
   the [put_*] functions below write without checks. *)
type writer = {
  mutable buf : Bytes.t;
  mutable pos : int;
}

let[@inline] reserve w n =
  if w.pos + n > Bytes.length w.buf then begin
    let buf = Bytes.create (max (2 * Bytes.length w.buf) (w.pos + n)) in
    Bytes.blit w.buf 0 buf 0 w.pos;
    w.buf <- buf
  end

let[@inline] put_char w c =
  Bytes.unsafe_set w.buf w.pos c;
  w.pos <- w.pos + 1

let[@inline] put_string w s =
  Bytes.unsafe_blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

(* Digits of [-m] for [m <= 0]: working on the non-positive side covers
   [min_int].  [width] counts them, [fill] writes them right to left
   ending at [i]. *)
let rec width m k = if m <= -10 then width (m / 10) (k + 1) else k

let rec fill b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then fill b (i - 1) (m / 10)

(* At most 20 bytes: [min_int] has 19 digits and a sign. *)
let[@inline] put_int w n =
  let m =
    if n < 0 then begin
      put_char w '-';
      n
    end
    else -n
  in
  let k = width m 1 in
  fill w.buf (w.pos + k - 1) m;
  w.pos <- w.pos + k

let put_header w keyword n =
  reserve w (String.length keyword + 22);
  put_string w keyword;
  put_char w ' ';
  put_int w n;
  put_char w '\n'

(* "e ", four ints, the kind and four spaces, before the op's tail. *)
let max_event_head = 2 + (4 * 20) + 1 + 4

(* Each op's " cls member\n" is rendered once per save, at its first
   event, and found again through the op's number. *)
let to_bytes (log : Log.t) =
  let w = { buf = Bytes.create (256 + (Array.length log.events * 48)); pos = 0 } in
  reserve w (String.length magic + 1);
  put_string w magic;
  put_char w '\n';
  put_header w "duration" log.duration;
  put_header w "threads" log.threads;
  List.iter (put_header w "volatile") (Log.volatile_list log);
  let nums = Opid.Numbering.create () in
  let tails = ref [||] in
  for i = 0 to Array.length log.events - 1 do
    let e = Array.unsafe_get log.events i in
    let k = Opid.Numbering.number nums e.op in
    if k = Array.length !tails then tails := Array.append !tails (Array.make (max 16 k) "");
    let tail =
      let t = Array.unsafe_get !tails k in
      if String.length t > 0 then t
      else begin
        let t = String.concat "" [ " "; e.op.cls; " "; e.op.member; "\n" ] in
        !tails.(k) <- t;
        t
      end
    in
    reserve w (max_event_head + String.length tail);
    put_char w 'e';
    put_char w ' ';
    put_int w e.time;
    put_char w ' ';
    put_int w e.tid;
    put_char w ' ';
    put_char w (kind_char e.op.kind);
    put_char w ' ';
    put_int w e.target;
    put_char w ' ';
    put_int w e.delayed_by;
    put_string w tail
  done;
  w

(* ------------------------------------------------------------------ *)
(* Text reader *)

(* Raised inside the reader and turned into a positioned [Failure] at
   the line that caused it. *)
exception Malformed

exception Bad_name of string

(* [key] equals [s.[a, a + String.length key)], from offset [i] on:
   8 bytes at a time ([String.get_int64_le]), then the rest bytewise,
   so no read passes the end of [key]. *)
let rec same_bytes key s a i =
  let n = String.length key in
  if i + 8 <= n then
    (String.get_int64_le key i : int64) = String.get_int64_le s (a + i)
    && same_bytes key s a (i + 8)
  else
    i = n
    || String.unsafe_get key i = String.unsafe_get s (a + i)
       && same_bytes key s a (i + 1)

(* Per-load op cache in front of the constructors, which share one
   record per name process-wide.  Open addressing on a hash of the kind
   and the line's "cls member" bytes, taken while the line is scanned
   ([names] below): a repeated op costs one comparison against the
   slot's key, and only a new op allocates. *)
type interner = {
  mutable hashes : int array;  (* -1 marks an empty slot *)
  mutable keys : string array;  (* "cls member" of the slot's op *)
  mutable ops : Opid.t array;
  mutable count : int;
}

let no_op = Opid.read ~cls:"" ""

let interner () =
  {
    hashes = Array.make 64 (-1);
    keys = Array.make 64 "";
    ops = Array.make 64 no_op;
    count = 0;
  }

(* The slot of the op, or [-1 - i] for the empty slot [i] it belongs in. *)
let rec probe t h kind s a n i =
  let hi = Array.unsafe_get t.hashes i in
  if hi < 0 then -1 - i
  else if
    hi = h
    && (Array.unsafe_get t.ops i).kind = kind
    && String.length (Array.unsafe_get t.keys i) = n
    && same_bytes (Array.unsafe_get t.keys i) s a 0
  then i
  else probe t h kind s a n ((i + 1) land (Array.length t.hashes - 1))

let rec insert t h key op i =
  if Array.unsafe_get t.hashes i >= 0 then
    insert t h key op ((i + 1) land (Array.length t.hashes - 1))
  else begin
    t.hashes.(i) <- h;
    t.keys.(i) <- key;
    t.ops.(i) <- op
  end

let grow t =
  let { hashes; keys; ops; _ } = t in
  let cap = 2 * Array.length hashes in
  t.hashes <- Array.make cap (-1);
  t.keys <- Array.make cap "";
  t.ops <- Array.make cap no_op;
  Array.iteri
    (fun i h -> if h >= 0 then insert t h keys.(i) ops.(i) (h land (cap - 1)))
    hashes

(* The op named by [kind] and [s.[c0, m1)], "cls member" with the space
   at [c1], whose hash is [h].  A new one is built by the checking
   constructor, so each distinct name is validated once per load.
   Raises [Bad_name] on a bad name. *)
let intern t kind s c0 c1 m1 h =
  let i = probe t h kind s c0 (m1 - c0) (h land (Array.length t.hashes - 1)) in
  if i >= 0 then Array.unsafe_get t.ops i
  else begin
    let cls = String.sub s c0 (c1 - c0)
    and member = String.sub s (c1 + 1) (m1 - c1 - 1) in
    let make =
      match kind with
      | Opid.Read -> Opid.read
      | Write -> Opid.write
      | Begin -> Opid.enter
      | End -> Opid.exit
    in
    let op = try make ~cls member with Invalid_argument msg -> raise (Bad_name msg) in
    insert t h (String.sub s c0 (m1 - c0)) op (-1 - i);
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.hashes then grow t;
    op
  end

(* One load's state.  Every function below reads fields left to right
   and leaves [stop] where the last one ended: a space, a newline or
   [len]. *)
type reader = {
  s : string;
  len : int;
  mutable stop : int;
  mutable mid : int;  (* the space between an event's two names *)
  mutable duration : int;
  mutable threads : int;
  volatile_addrs : (int, unit) Hashtbl.t;
  events : Log.Builder.t;
  ops : interner;
}

(* End of the field at [i]: the first space or newline, or [len]. *)
let rec field_end s len i =
  if i < len && String.unsafe_get s i <> ' ' && String.unsafe_get s i <> '\n' then
    field_end s len (i + 1)
  else i

(* Whether some byte of [w] is at most ' ': [w - 0x2121..21] borrows
   into bit 7 of the lowest such byte, and [lnot w] keeps bit 7 only of
   bytes below 0x80. *)
let[@inline] has_low w =
  let low = Int64.(logand (sub w 0x2121212121212121L) (lognot w)) in
  not ((Int64.logand low 0x8080808080808080L : int64) = 0L)

let fnv_prime = 0x100000001b3

(* The multiplies only carry upward; fold the high bits down before the
   low ones pick a slot. *)
let finish_hash h =
  let h = (h lxor (h lsr 32)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 29)) land max_int

(* "cls member" from [i], hashed as it is scanned: [mid] is left at the
   first space, [stop] at the next space or newline (or [len]), and the
   hash of [s.[i, stop)] continued from [h] is returned.  Eight bytes
   none of which is at most ' ' are hashed as one word; other bytes one
   at a time ([String.get_int64_le] words; byte order only has to agree
   within one process).  Which bytes go as words depends only on the
   bytes of the span, so one name always hashes alike, and no read
   passes [len]. *)
let rec names r s len i h =
  if i + 8 <= len && not (has_low (String.get_int64_le s i)) then
    let w = Int64.to_int (String.get_int64_le s i) in
    names r s len (i + 8) ((h lxor w) * fnv_prime)
  else if i = len then begin
    r.stop <- i;
    h
  end
  else
    let c = String.unsafe_get s i in
    if c = '\n' || (c = ' ' && r.mid >= 0) then begin
      r.stop <- i;
      h
    end
    else begin
      if c = ' ' then r.mid <- i;
      names r s len (i + 1) ((h lxor Char.code c) * fnv_prime)
    end

(* Start of the next field: [stop] must be a space. *)
let[@inline] next r =
  let i = r.stop in
  if i < r.len && String.unsafe_get r.s i = ' ' then i + 1 else raise_notrace Malformed

(* Longest digit run that cannot overflow a 63-bit int. *)
let max_fast_digits = 18

(* The value of the digits from [i] on, accumulated as they are
   scanned; [stop] is left at the first non-digit. *)
let rec digits r s len i n =
  let c = if i < len then Char.code (String.unsafe_get s i) - 48 else -1 in
  if c >= 0 && c <= 9 then digits r s len (i + 1) ((n * 10) + c)
  else begin
    r.stop <- i;
    n
  end

(* The int field at [a].  Plain decimal — an optional '-' and at most
   [max_fast_digits] digits — is read as it is scanned; anything else
   goes to [int_of_string_opt], so exactly the inputs [int_of_string]
   accepts are accepted. *)
let[@inline] int_field r a =
  let s = r.s and len = r.len in
  let d0 = if a < len && String.unsafe_get s a = '-' then a + 1 else a in
  let n = digits r s len d0 0 in
  let b = r.stop in
  if
    b > d0
    && b - d0 <= max_fast_digits
    && (b = len || String.unsafe_get s b = ' ' || String.unsafe_get s b = '\n')
  then if d0 > a then -n else n
  else begin
    let b = field_end s len b in
    r.stop <- b;
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some n -> n
    | None -> raise_notrace Malformed
  end

let[@inline] kind_of_char = function
  | 'r' -> Opid.Read
  | 'w' -> Opid.Write
  | 'b' -> Opid.Begin
  | 'e' -> Opid.End
  | _ -> raise_notrace Malformed

(* "<time> <tid> <kind> <target> <delayed_by> <cls> <member>" from [a]
   on, after an "e ".  Only the kind field's first byte is read.  The
   op is interned last, so a line that is malformed anywhere fails as
   malformed even when its names are bad too. *)
let event_line r a =
  let s = r.s and len = r.len in
  let time = int_field r a in
  let tid = int_field r (next r) in
  let k = next r in
  if k = len then raise_notrace Malformed;
  let kind = kind_of_char (String.unsafe_get s k) in
  r.stop <- field_end s len (k + 1);
  let target = int_field r (next r) in
  let delayed_by = int_field r (next r) in
  let c0 = next r in
  r.mid <- -1;
  let h = finish_hash (names r s len c0 (Char.code (kind_char kind))) in
  let c1 = r.mid and m1 = r.stop in
  (* Seven fields, or nine or more. *)
  if c1 < 0 || (m1 < len && String.unsafe_get s m1 = ' ') then raise_notrace Malformed;
  let op = intern r.ops kind s c0 c1 m1 h in
  Log.Builder.add r.events { Event.time; tid; op; target; delayed_by }

let[@inline] is_lit lit s a b = b - a = String.length lit && same_bytes lit s a 0

(* The line at [a]: an event, a header "<keyword> <int>", or empty.
   Single spaces separate fields, as [String.split_on_char ' '] would
   cut them, so doubled, leading or trailing spaces make empty fields,
   and a line is accepted only in one of the documented shapes. *)
let line r a =
  let s = r.s and len = r.len in
  if a + 1 < len && String.unsafe_get s a = 'e' && String.unsafe_get s (a + 1) = ' '
  then
    event_line r (a + 2)
  else begin
    let b = field_end s len a in
    r.stop <- b;
    if b > a || (b < len && String.unsafe_get s b = ' ') then begin
      let n = int_field r (next r) in
      if r.stop < len && String.unsafe_get s r.stop = ' ' then raise_notrace Malformed;
      if is_lit "duration" s a b then r.duration <- n
      else if is_lit "threads" s a b then r.threads <- n
      else if is_lit "volatile" s a b then Hashtbl.replace r.volatile_addrs n ()
      else raise_notrace Malformed
    end
  end

(* One pass over the string, a line at a time.  Errors carry file:line
   (1-based, counting the magic line) so a truncated or garbled trace
   points straight at the bad spot. *)
let of_string_text ?(path = "<string>") s =
  let len = String.length s in
  let ml = String.length magic in
  if not (String.starts_with ~prefix:magic s && (len = ml || s.[ml] = '\n')) then
    failwith (Printf.sprintf "%s:1: Trace_io: bad magic" path);
  let r =
    {
      s;
      len;
      stop = ml;
      mid = 0;
      duration = 0;
      threads = 0;
      volatile_addrs = Hashtbl.create 8;
      events = Log.Builder.create ();
      ops = interner ();
    }
  in
  let lineno = ref 1 in
  while r.stop < len do
    let a = r.stop + 1 in
    incr lineno;
    match line r a with
    | () -> ()
    | exception Malformed ->
      let b = Option.value ~default:len (String.index_from_opt s a '\n') in
      failwith
        (Printf.sprintf "%s:%d: Trace_io: malformed line: %s" path !lineno
           (String.sub s a (b - a)))
    | exception Bad_name msg ->
      failwith (Printf.sprintf "%s:%d: Trace_io: %s" path !lineno msg)
  done;
  Log.Builder.finish r.events ~duration:r.duration ~threads:r.threads
    ~volatile_addrs:r.volatile_addrs

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
  | Text ->
    let w = to_bytes log in
    Bytes.sub_string w.buf 0 w.pos
  | Binary -> Trace_bin.to_string log

let of_string ?path s =
  match sniff s with
  | Binary -> Trace_bin.of_string ?path s
  | Text -> of_string_text ?path s

let save ?(format = Text) log path =
  Sherlock_util.Atomic_file.write path (fun oc ->
      match format with
      | Binary -> Trace_bin.output oc log
      | Text ->
        let w = to_bytes log in
        output oc w.buf 0 w.pos)

(* The whole file as one string, read with [Unix.read] into a buffer of
   the file's [fstat] size: no channel buffer in between.  Errors surface
   as [Sys_error], as a channel's would. *)
let read_file path =
  try
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let buf = Bytes.create (Unix.fstat fd).Unix.st_size in
    let rec fill pos =
      if pos = Bytes.length buf then buf
      else
        match Unix.read fd buf pos (Bytes.length buf - pos) with
        | 0 -> Bytes.sub buf 0 pos
        | n -> fill (pos + n)
    in
    Bytes.unsafe_to_string (fill 0)
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let load path =
  match format_of_file path with
  | Binary -> Trace_bin.load path
  | Text -> of_string_text ~path (read_file path)
