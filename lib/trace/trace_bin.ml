(* The binary trace format: a framed, columnar encoding designed so a
   reader never parses event records at all — it maps the file and lays
   Bigarray views over the columns.

   Layout (every integer little-endian; [u64]/[i64] 8 bytes, [i32] 4,
   [u16] 2):

   {v
   0    magic "SHLKTRC\x01"            (8 bytes; last byte = version)
   8    u64 num_events
   16   u64 num_ops                    (interned operation table entries)
   24   u64 events_offset              (8-aligned)
   32   u64 footer_offset              (8-aligned)
   40   op table: per entry
          u8 kind ('r' 'w' 'b' 'e'), u16 cls_len, u16 member_len,
          cls bytes, member bytes
        zero padding up to events_offset
   events_offset
        time    column: num_events x i64
        target  column: num_events x i64
        tid     column: num_events x i32
        op      column: num_events x i32 (index into the op table)
        delayed column: num_events x i32
        zero padding up to footer_offset
   footer_offset
        u64 duration, u64 threads, u64 num_volatile,
        num_volatile x i64 addrs (ascending)  -- exact end of file
   v}

   Events are stored in the log's (time, emission) order, so the
   decoders' [Log.of_array] finds them in order and does not sort;
   operation names are interned, so every dynamic instance of an op
   shares one [Opid.t] in memory.  The 64-bit columns come first and
   every section is 8-aligned, keeping each mapped view naturally
   aligned for its element type. *)

let magic = "SHLKTRC\x01"

let align8 n = (n + 7) land lnot 7

let event_bytes = 28 (* 2 x i64 + 3 x i32 per event *)

let header_bytes = 40

let footer_fixed_bytes = 24

let kind_char = function
  | Opid.Read -> 'r'
  | Opid.Write -> 'w'
  | Opid.Begin -> 'b'
  | Opid.End -> 'e'

(* ------------------------------------------------------------------ *)
(* Writer *)

(* One table entry per distinct op, numbered in first-appearance order;
   events store the 32-bit index.  Returns the op column with the table,
   both built in one pass of one numbering lookup per event. *)
let intern (log : Log.t) =
  let numbering = Opid.Numbering.create () in
  let column = Array.map (fun (e : Event.t) -> Opid.Numbering.number numbering e.op) log.events in
  (column, Array.init (Opid.Numbering.length numbering) (Opid.Numbering.op numbering))

let op_entry_bytes (o : Opid.t) = 5 + String.length o.cls + String.length o.member

let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_i32 buf v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg
      (Printf.sprintf "Trace_bin: value %d exceeds the 32-bit column range" v);
  Buffer.add_int32_le buf (Int32.of_int v)

let add_pad buf n =
  for _ = 1 to n do
    Buffer.add_char buf '\x00'
  done

(* Serialization streams every section through [buf]; [flush] drains it
   to the sink whenever a chunk accumulates (and is a no-op when the
   caller wants the whole image in memory).  Extends the direct-buffer
   approach of the text writer: no per-field formatting round-trips, and
   a file of any size is written through one 64 KiB buffer. *)
let chunk_bytes = 1 lsl 16

let write_with (log : Log.t) ~buf ~flush =
  let opix, ops = intern log in
  let n = Array.length log.events in
  let op_table_bytes = Array.fold_left (fun a o -> a + op_entry_bytes o) 0 ops in
  let events_offset = align8 (header_bytes + op_table_bytes) in
  let footer_offset = events_offset + align8 (event_bytes * n) in
  let maybe_flush () = if Buffer.length buf >= chunk_bytes then flush buf in
  Buffer.add_string buf magic;
  add_i64 buf n;
  add_i64 buf (Array.length ops);
  add_i64 buf events_offset;
  add_i64 buf footer_offset;
  Array.iter
    (fun (o : Opid.t) ->
      if String.length o.cls > 0xffff || String.length o.member > 0xffff then
        invalid_arg "Trace_bin: operation name longer than 65535 bytes";
      Buffer.add_char buf (kind_char o.kind);
      Buffer.add_uint16_le buf (String.length o.cls);
      Buffer.add_uint16_le buf (String.length o.member);
      Buffer.add_string buf o.cls;
      Buffer.add_string buf o.member;
      maybe_flush ())
    ops;
  add_pad buf (events_offset - (header_bytes + op_table_bytes));
  let column add =
    Array.iter
      (fun (e : Event.t) ->
        add e;
        maybe_flush ())
      log.events
  in
  column (fun (e : Event.t) -> add_i64 buf e.time);
  column (fun (e : Event.t) -> add_i64 buf e.target);
  column (fun (e : Event.t) -> add_i32 buf e.tid);
  Array.iter
    (fun k ->
      add_i32 buf k;
      maybe_flush ())
    opix;
  column (fun (e : Event.t) -> add_i32 buf e.delayed_by);
  add_pad buf (footer_offset - (events_offset + (event_bytes * n)));
  add_i64 buf log.duration;
  add_i64 buf log.threads;
  add_i64 buf (Hashtbl.length log.volatile_addrs);
  List.iter (fun a -> add_i64 buf a) (Log.volatile_list log)

let output oc log =
  let buf = Buffer.create chunk_bytes in
  let flush b =
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  write_with log ~buf ~flush;
  flush buf

let to_string (log : Log.t) =
  let buf = Buffer.create (4096 + (event_bytes * Array.length log.events)) in
  write_with log ~buf ~flush:(fun _ -> ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader *)

(* Decode errors carry the byte offset of the bad frame, the binary
   analogue of the text parser's file:line convention. *)
let err ~path ~off fmt =
  Printf.ksprintf
    (fun m -> failwith (Printf.sprintf "%s: byte %d: Trace_bin: %s" path off m))
    fmt

(* [head] is the first [min size 40] bytes of the image. *)
let parse_header ~path ~size head =
  if String.length head < 8 || String.sub head 0 8 <> magic then
    err ~path ~off:0 "bad magic";
  if String.length head < header_bytes then err ~path ~off:8 "truncated header";
  let geti off =
    let v = String.get_int64_le head off in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      err ~path ~off "header field out of range";
    Int64.to_int v
  in
  let n = geti 8 in
  let num_ops = geti 16 in
  let events_offset = geti 24 in
  let footer_offset = geti 32 in
  if n > size / event_bytes then
    err ~path ~off:8 "event count %d impossible for a %d-byte file" n size;
  if num_ops > size / 5 then
    err ~path ~off:16 "op table size %d impossible for a %d-byte file" num_ops size;
  if events_offset < header_bytes || events_offset land 7 <> 0
     || events_offset > size
  then err ~path ~off:24 "op table overruns the file (events offset %d, size %d)" events_offset size;
  if footer_offset <> events_offset + align8 (event_bytes * n)
     || footer_offset + footer_fixed_bytes > size
  then
    err ~path ~off:32 "event columns overrun the file (footer offset %d, size %d)"
      footer_offset size;
  (n, num_ops, events_offset, footer_offset)

(* [s] is exactly the op-table region; [base] its offset in the file. *)
let parse_op_table ~path ~base ~num_ops s =
  let len = String.length s in
  let dummy = Opid.read ~cls:"" "" in
  let ops = Array.make (max 1 num_ops) dummy in
  let pos = ref 0 in
  for k = 0 to num_ops - 1 do
    let off = base + !pos in
    if !pos + 5 > len then err ~path ~off "truncated op table entry %d" k;
    let make =
      match s.[!pos] with
      | 'r' -> Opid.read
      | 'w' -> Opid.write
      | 'b' -> Opid.enter
      | 'e' -> Opid.exit
      | c -> err ~path ~off "bad op kind %C" c
    in
    let cls_len = String.get_uint16_le s (!pos + 1) in
    let member_len = String.get_uint16_le s (!pos + 3) in
    if !pos + 5 + cls_len + member_len > len then
      err ~path ~off "truncated op table entry %d" k;
    let cls = String.sub s (!pos + 5) cls_len in
    let member = String.sub s (!pos + 5 + cls_len) member_len in
    pos := !pos + 5 + cls_len + member_len;
    ops.(k) <-
      (match make ~cls member with
      | op -> op
      | exception Invalid_argument m -> err ~path ~off "%s" m)
  done;
  (* Only alignment padding may remain after the last entry. *)
  if len - !pos >= 8 then err ~path ~off:(base + !pos) "op table size mismatch";
  ops

let parse_footer_fixed ~path ~footer_offset ~size s =
  let geti off =
    let v = String.get_int64_le s off in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      err ~path ~off:(footer_offset + off) "footer field out of range";
    Int64.to_int v
  in
  let duration = geti 0 in
  let threads = geti 8 in
  let num_volatile = geti 16 in
  if footer_offset + footer_fixed_bytes + (8 * num_volatile) <> size then
    err ~path ~off:(footer_offset + 16)
      "volatile table does not end the file (%d entries, %d bytes left)"
      num_volatile
      (size - footer_offset - footer_fixed_bytes);
  (duration, threads, num_volatile)

let bad_op_index ~path ~events_offset ~num_ops ~n i k =
  err ~path
    ~off:(events_offset + (20 * n) + (4 * i))
    "op index %d out of range (table has %d entries)" k num_ops

(* The mmap-backed load: columns become Bigarray views over the mapped
   pages — no intermediate strings, no record parsing — and the event
   array is filled straight from those views.  The op column is the only
   one that needs validation (indices bound a table lookup); everything
   else is copied verbatim into the [Event.t] fields. *)
let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      let head = really_input_string ic (min size header_bytes) in
      let n, num_ops, events_offset, footer_offset =
        parse_header ~path ~size head
      in
      let table = really_input_string ic (events_offset - header_bytes) in
      let ops = parse_op_table ~path ~base:header_bytes ~num_ops table in
      let fd = Unix.descr_of_in_channel ic in
      let map kind count pos =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false
             [| count |])
      in
      let events =
        if n = 0 then [||]
        else begin
          let times = map Bigarray.int64 n events_offset in
          let targets = map Bigarray.int64 n (events_offset + (8 * n)) in
          let tids = map Bigarray.int32 n (events_offset + (16 * n)) in
          let opix = map Bigarray.int32 n (events_offset + (20 * n)) in
          let delays = map Bigarray.int32 n (events_offset + (24 * n)) in
          let dummy = Event.make ~time:0 ~tid:0 ~op:ops.(0) () in
          let events = Array.make n dummy in
          for i = 0 to n - 1 do
            let k = Int32.to_int (Bigarray.Array1.unsafe_get opix i) in
            if k < 0 || k >= num_ops then
              bad_op_index ~path ~events_offset ~num_ops ~n i k;
            let time = Int64.to_int (Bigarray.Array1.unsafe_get times i) in
            let tid = Int32.to_int (Bigarray.Array1.unsafe_get tids i) in
            let target = Int64.to_int (Bigarray.Array1.unsafe_get targets i) in
            let delayed_by = Int32.to_int (Bigarray.Array1.unsafe_get delays i) in
            Array.unsafe_set events i
              { Event.time; tid; op = Array.unsafe_get ops k; target; delayed_by }
          done;
          events
        end
      in
      seek_in ic footer_offset;
      let duration, threads, num_volatile =
        parse_footer_fixed ~path ~footer_offset ~size
          (really_input_string ic footer_fixed_bytes)
      in
      let volatile_addrs = Hashtbl.create (max 8 num_volatile) in
      if num_volatile > 0 then begin
        let addrs = map Bigarray.int64 num_volatile (footer_offset + footer_fixed_bytes) in
        for i = 0 to num_volatile - 1 do
          Hashtbl.replace volatile_addrs (Int64.to_int addrs.{i}) ()
        done
      end;
      Log.of_array events ~duration ~threads ~volatile_addrs)

(* In-memory decode of the same image, for tests and string round-trips;
   shares the header/op-table/footer parsing with [load]. *)
let of_string ?(path = "<string>") s =
  let size = String.length s in
  let head = String.sub s 0 (min size header_bytes) in
  let n, num_ops, events_offset, footer_offset = parse_header ~path ~size head in
  let table = String.sub s header_bytes (events_offset - header_bytes) in
  let ops = parse_op_table ~path ~base:header_bytes ~num_ops table in
  let events =
    if n = 0 then [||]
    else begin
      let i64 base i = Int64.to_int (String.get_int64_le s (base + (8 * i))) in
      let i32 base i = Int32.to_int (String.get_int32_le s (base + (4 * i))) in
      let dummy = Event.make ~time:0 ~tid:0 ~op:ops.(0) () in
      let events = Array.make n dummy in
      for i = 0 to n - 1 do
        let k = i32 (events_offset + (20 * n)) i in
        if k < 0 || k >= num_ops then
          bad_op_index ~path ~events_offset ~num_ops ~n i k;
        let time = i64 events_offset i in
        let tid = i32 (events_offset + (16 * n)) i in
        let target = i64 (events_offset + (8 * n)) i in
        let delayed_by = i32 (events_offset + (24 * n)) i in
        Array.unsafe_set events i
          { Event.time; tid; op = Array.unsafe_get ops k; target; delayed_by }
      done;
      events
    end
  in
  let duration, threads, num_volatile =
    parse_footer_fixed ~path ~footer_offset ~size
      (String.sub s footer_offset footer_fixed_bytes)
  in
  let volatile_addrs = Hashtbl.create (max 8 num_volatile) in
  for i = 0 to num_volatile - 1 do
    let a =
      Int64.to_int
        (String.get_int64_le s (footer_offset + footer_fixed_bytes + (8 * i)))
    in
    Hashtbl.replace volatile_addrs a ()
  done;
  Log.of_array events ~duration ~threads ~volatile_addrs
