open Kona_util

type policy = Lru | Fifo | Random of int

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

let base t vpage = vpage mod t.nsets * t.assoc

let find t vpage =
  let b = base t vpage in
  let rec loop way =
    if way = t.assoc then None
    else if t.frames.(b + way).vpage = vpage then Some t.frames.(b + way)
    else loop (way + 1)
  in
  loop 0

type victim = { vpage : int; dirty_lines : Bitmap.t }

let touch t (frame : frame) =
  t.tick <- t.tick + 1;
  frame.stamp <- t.tick

let set_of t vpage = vpage mod t.nsets

let lookup t ~vpage =
  match find t vpage with
  | Some frame ->
      (* FIFO keeps the insertion stamp; LRU refreshes on every touch. *)
      (match t.policy with Lru -> touch t frame | Fifo | Random _ -> ());
      t.set_hits.(set_of t vpage) <- t.set_hits.(set_of t vpage) + 1;
      true
  | None ->
      t.set_misses.(set_of t vpage) <- t.set_misses.(set_of t vpage) + 1;
      false

(* The set's next victim: a free frame if any, else per policy. *)
let lru_frame t vpage : frame =
  let b = base t vpage in
  let free = ref None in
  for way = 0 to t.assoc - 1 do
    if t.frames.(b + way).vpage = -1 && !free = None then free := Some t.frames.(b + way)
  done;
  match !free with
  | Some f -> f
  | None -> (
      match t.policy with
      | Lru | Fifo ->
          let best = ref t.frames.(b) in
          for way = 1 to t.assoc - 1 do
            let f = t.frames.(b + way) in
            if f.stamp < !best.stamp then best := f
          done;
          !best
      | Random _ -> t.frames.(b + Rng.int t.rng t.assoc))

let take_victim (frame : frame) =
  let v = { vpage = frame.vpage; dirty_lines = Bitmap.copy frame.dirty } in
  frame.vpage <- -1;
  frame.stamp <- 0;
  Bitmap.clear_all frame.dirty;
  v

let insert t ~vpage =
  match find t vpage with
  | Some frame ->
      touch t frame;
      None
  | None ->
      let frame = lru_frame t vpage in
      let victim = if frame.vpage = -1 then None else Some (take_victim frame) in
      if victim <> None then
        t.set_evictions.(set_of t vpage) <- t.set_evictions.(set_of t vpage) + 1;
      frame.vpage <- vpage;
      Bitmap.clear_all frame.dirty;
      touch t frame;
      victim

let mark_dirty t ~vpage ~line =
  assert (line >= 0 && line < Units.lines_per_page);
  match find t vpage with
  | Some frame ->
      Bitmap.set frame.dirty line;
      true
  | None -> false

let dirty_lines t ~vpage = Option.map (fun f -> Bitmap.copy f.dirty) (find t vpage)

let clear_dirty t ~vpage =
  match find t vpage with Some f -> Bitmap.clear_all f.dirty | None -> ()

let evict t ~vpage =
  match find t vpage with
  | None -> None
  | Some frame ->
      t.set_evictions.(set_of t vpage) <- t.set_evictions.(set_of t vpage) + 1;
      Some (take_victim frame)

let victim_candidate t ~vpage =
  let frame = lru_frame t vpage in
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
