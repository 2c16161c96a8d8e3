open Kona_util

type policy = Lru | Fifo | Random of int

(* Frames keep per-way stamps instead of the recency-ordered slots of
   [Kona_cachesim.Cache], because a frame's position is observable:
   [iter_resident] walks the frames in array order, which is the order in
   which both runtimes drain FMem at the end of a run (and so a digest
   contract), and the FIFO and random ablation policies pick a victim by
   way.  Moving a frame on every touch would change both. *)
type frame = {
  mutable vpage : int; (* -1 = free *)
  mutable stamp : int; (* LRU: last touch; FIFO: insertion time *)
  dirty : Bitmap.t;
}

type t = {
  frames : frame array; (* nsets * assoc, way-major *)
  nsets : int;
  assoc : int;
  policy : policy;
  rng : Rng.t;
  mutable tick : int;
  (* Per-set probe accounting, indexed by set: cache-organization skew
     (which sets thrash) is invisible in aggregate hit rates. *)
  set_hits : int array;
  set_misses : int array;
  set_evictions : int array;
}

let create ?(assoc = 4) ?(policy = Lru) ~pages () =
  if pages <= 0 || assoc <= 0 || pages mod assoc <> 0 then
    invalid_arg "Fmem.create: pages must be a positive multiple of assoc";
  let nsets = pages / assoc in
  {
    frames =
      Array.init pages (fun _ ->
          { vpage = -1; stamp = 0; dirty = Bitmap.create Units.lines_per_page });
    nsets;
    assoc;
    policy;
    rng = Rng.create ~seed:(match policy with Random seed -> seed | Lru | Fifo -> 0);
    tick = 0;
    set_hits = Array.make nsets 0;
    set_misses = Array.make nsets 0;
    set_evictions = Array.make nsets 0;
  }

let resident t =
  Array.fold_left (fun acc f -> if f.vpage >= 0 then acc + 1 else acc) 0 t.frames

let set_of t vpage = vpage mod t.nsets

(* The index in [frames] of [vpage]'s frame among [frames.(i)] ..
   [frames.(last)], or -1: one scan, with no closure and no [Some]. *)
let rec scan (frames : frame array) vpage i last =
  if i > last then -1
  else if frames.(i).vpage = vpage then i
  else scan frames vpage (i + 1) last

let find_in t ~set vpage =
  let first = set * t.assoc in
  scan t.frames vpage first (first + t.assoc - 1)

let find t vpage = find_in t ~set:(set_of t vpage) vpage

type victim = { vpage : int; dirty_lines : Bitmap.t }

let touch t (frame : frame) =
  t.tick <- t.tick + 1;
  frame.stamp <- t.tick

let lookup t ~vpage =
  let set = set_of t vpage in
  let i = find_in t ~set vpage in
  if i >= 0 then begin
    (* FIFO keeps the insertion stamp; LRU refreshes on every touch. *)
    (match t.policy with Lru -> touch t t.frames.(i) | Fifo | Random _ -> ());
    t.set_hits.(set) <- t.set_hits.(set) + 1;
    true
  end
  else begin
    t.set_misses.(set) <- t.set_misses.(set) + 1;
    false
  end

(* The set's next victim: its first free frame if any, else per policy. *)
let victim_frame t ~set : frame =
  let first = set * t.assoc in
  let free = scan t.frames (-1) first (first + t.assoc - 1) in
  if free >= 0 then t.frames.(free)
  else
    match t.policy with
    | Lru | Fifo ->
        let best = ref t.frames.(first) in
        for way = 1 to t.assoc - 1 do
          let f = t.frames.(first + way) in
          if f.stamp < !best.stamp then best := f
        done;
        !best
    | Random _ -> t.frames.(first + Rng.int t.rng t.assoc)

let take_victim (frame : frame) =
  let v = { vpage = frame.vpage; dirty_lines = Bitmap.copy frame.dirty } in
  frame.vpage <- -1;
  frame.stamp <- 0;
  Bitmap.clear_all frame.dirty;
  v

let insert t ~vpage =
  let set = set_of t vpage in
  let i = find_in t ~set vpage in
  if i >= 0 then begin
    touch t t.frames.(i);
    None
  end
  else begin
    let frame = victim_frame t ~set in
    let victim =
      if frame.vpage = -1 then None
      else begin
        t.set_evictions.(set) <- t.set_evictions.(set) + 1;
        Some (take_victim frame)
      end
    in
    frame.vpage <- vpage;
    Bitmap.clear_all frame.dirty;
    touch t frame;
    victim
  end

let mark_dirty t ~vpage ~line =
  assert (line >= 0 && line < Units.lines_per_page);
  let i = find t vpage in
  if i >= 0 then Bitmap.set t.frames.(i).dirty line;
  i >= 0

let evict t ~vpage =
  let set = set_of t vpage in
  let i = find_in t ~set vpage in
  if i < 0 then None
  else begin
    t.set_evictions.(set) <- t.set_evictions.(set) + 1;
    Some (take_victim t.frames.(i))
  end

let victim_candidate t ~vpage =
  let frame = victim_frame t ~set:(set_of t vpage) in
  if frame.vpage = -1 then None else Some frame.vpage

let nsets t = t.nsets
let sum = Array.fold_left ( + ) 0
let probe_hits t = sum t.set_hits
let probe_misses t = sum t.set_misses
let evictions t = sum t.set_evictions

let set_counters t ~set =
  if set < 0 || set >= t.nsets then invalid_arg "Fmem.set_counters: set out of range";
  (t.set_hits.(set), t.set_misses.(set), t.set_evictions.(set))

let iter_resident t f =
  Array.iter
    (fun (frame : frame) ->
      if frame.vpage >= 0 then f ~vpage:frame.vpage ~dirty:(Bitmap.count frame.dirty))
    t.frames
