module Rng = Sherlock_util.Rng

type 'a t = {
  dummy : 'a;
  mutable len : int;
  mutable tids : int array;
  mutable clocks : int array;
  mutable values : 'a array;
}

let create ~dummy =
  {
    dummy;
    len = 0;
    tids = Array.make 8 0;
    clocks = Array.make 8 0;
    values = Array.make 8 dummy;
  }

let length r = r.len

let grow r =
  let n = 2 * Array.length r.tids in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 r.len;
    b
  in
  r.tids <- extend r.tids 0;
  r.clocks <- extend r.clocks 0;
  r.values <- extend r.values r.dummy

let push r ~tid ~clock v =
  if r.len = Array.length r.tids then grow r;
  r.tids.(r.len) <- tid;
  r.clocks.(r.len) <- clock;
  r.values.(r.len) <- v;
  r.len <- r.len + 1

(* One newest-first pass finds the minimum clock and how many entries
   hold it; only a tie draws, and the draw's [k] counts tied entries
   newest first.  Both are the scheduler's pick order: changing either
   changes every schedule.  [extra] is 1 when the running thread, at
   [clock], takes part as if pushed after every entry (slot -1), and 0
   for a plain pick ([clock] is then [max_int]). *)
let select r rng ~clock ~extra =
  let min = ref clock and count = ref extra and slot = ref (-1) in
  for i = r.len - 1 downto 0 do
    let c = r.clocks.(i) in
    if c < !min then begin
      min := c;
      count := 1;
      slot := i
    end
    else if c = !min then begin
      if !count = 0 then slot := i;
      incr count
    end
  done;
  if !count > 1 then begin
    let k = Rng.int rng !count in
    let k = if !min = clock then k - extra else k in
    if k < 0 then slot := -1
    else begin
      let k = ref k and i = ref r.len in
      while !k >= 0 do
        decr i;
        if r.clocks.(!i) = !min then decr k
      done;
      slot := !i
    end
  end;
  !slot

let pick r rng = select r rng ~clock:max_int ~extra:0

let pick_running r rng ~clock = select r rng ~clock ~extra:1

let tid r i = r.tids.(i)

let clock r i = r.clocks.(i)

let remove r i =
  let v = r.values.(i) in
  let last = r.len - 1 in
  for j = i to last - 1 do
    r.tids.(j) <- r.tids.(j + 1);
    r.clocks.(j) <- r.clocks.(j + 1);
    r.values.(j) <- r.values.(j + 1)
  done;
  r.values.(last) <- r.dummy;
  r.len <- last;
  v
