type t = {
  mutable events : int;
  mutable pairs_considered : int;
  mutable pairs_capped : int;
  mutable windows : int;
  mutable races : int;
}

let create () =
  { events = 0; pairs_considered = 0; pairs_capped = 0; windows = 0; races = 0 }

let copy t = { t with events = t.events }

let merge ~into t =
  into.events <- into.events + t.events;
  into.pairs_considered <- into.pairs_considered + t.pairs_considered;
  into.pairs_capped <- into.pairs_capped + t.pairs_capped;
  into.windows <- into.windows + t.windows;
  into.races <- into.races + t.races
