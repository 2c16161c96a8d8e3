open Kona_util

type t = {
  cache_name : string;
  block : int;
  block_bits : int;
  nsets : int;
  assoc : int;
  (* way-major state, indexed [set * assoc + way] *)
  tags : int array; (* block address; -1 = invalid *)
  dirty : bool array;
  stamp : int array; (* LRU timestamp *)
  mutable tick : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
}

let create ~name ~size ~assoc ~block =
  if size <= 0 || assoc <= 0 || block <= 0 then
    invalid_arg "Cache.create: sizes must be positive";
  if not (Units.is_power_of_two block) then
    invalid_arg "Cache.create: block must be a power of two";
  if size mod (assoc * block) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of assoc * block";
  let nsets = size / (assoc * block) in
  let n = nsets * assoc in
  {
    cache_name = name;
    block;
    block_bits = Units.log2 block;
    nsets;
    assoc;
    tags = Array.make n (-1);
    dirty = Array.make n false;
    stamp = Array.make n 0;
    tick = 0;
    reads = 0;
    writes = 0;
    read_misses = 0;
    write_misses = 0;
    evictions = 0;
    dirty_evictions = 0;
  }

(* lsl/lsr are right-associative in OCaml: parenthesize the align-down. *)
let block_addr_of t addr = (addr lsr t.block_bits) lsl t.block_bits
let set_of t block_addr = (block_addr lsr t.block_bits) mod t.nsets

type evicted = { block_addr : int; dirty : bool }
type outcome = Hit | Miss of evicted option

(* The slot of [block_addr] among [tags.(i)] .. [tags.(limit - 1)], or -1.
   A top-level function over an annotated [int array]: no closure, no
   [Some], and [=] is the integer compare, not polymorphic compare. *)
let rec scan (tags : int array) block_addr i limit =
  if i = limit then -1
  else if tags.(i) = block_addr then i
  else scan tags block_addr (i + 1) limit

let find_slot t set block_addr =
  let base = set * t.assoc in
  scan t.tags block_addr base (base + t.assoc)

let slot_of t ~addr =
  let block_addr = block_addr_of t addr in
  find_slot t (set_of t block_addr) block_addr

let victim_way t set =
  (* Prefer an invalid way; otherwise least-recent stamp. *)
  let base = set * t.assoc in
  let best = ref base in
  let found_invalid = ref (t.tags.(base) = -1) in
  for way = 1 to t.assoc - 1 do
    let i = base + way in
    if not !found_invalid then
      if t.tags.(i) = -1 then begin
        best := i;
        found_invalid := true
      end
      else if t.stamp.(i) < t.stamp.(!best) then best := i
  done;
  !best

let touch t i =
  t.tick <- t.tick + 1;
  t.stamp.(i) <- t.tick

let access t ~addr ~write =
  let block_addr = block_addr_of t addr in
  let set = set_of t block_addr in
  if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
  let i = find_slot t set block_addr in
  if i >= 0 then begin
    touch t i;
    if write then t.dirty.(i) <- true;
    Hit
  end
  else begin
    if write then t.write_misses <- t.write_misses + 1
    else t.read_misses <- t.read_misses + 1;
    let i = victim_way t set in
    let victim =
      if t.tags.(i) = -1 then None
      else begin
        t.evictions <- t.evictions + 1;
        if t.dirty.(i) then t.dirty_evictions <- t.dirty_evictions + 1;
        Some { block_addr = t.tags.(i); dirty = t.dirty.(i) }
      end
    in
    t.tags.(i) <- block_addr;
    t.dirty.(i) <- write;
    touch t i;
    Miss victim
  end

let probe t ~addr = slot_of t ~addr >= 0

let is_dirty t ~addr =
  let i = slot_of t ~addr in
  i >= 0 && t.dirty.(i)

let flush_block t ~addr =
  let i = slot_of t ~addr in
  if i < 0 then None
  else begin
    let victim = { block_addr = t.tags.(i); dirty = t.dirty.(i) } in
    t.tags.(i) <- -1;
    t.dirty.(i) <- false;
    t.stamp.(i) <- 0;
    Some victim
  end

let set_dirty t ~addr =
  let i = slot_of t ~addr in
  if i >= 0 then t.dirty.(i) <- true;
  i >= 0

let iter_resident t f =
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> -1 then f ~block_addr:t.tags.(i) ~dirty:t.dirty.(i)
  done

type stats = {
  reads : int;
  writes : int;
  read_misses : int;
  write_misses : int;
  evictions : int;
  dirty_evictions : int;
}

let stats (t : t) =
  {
    reads = t.reads;
    writes = t.writes;
    read_misses = t.read_misses;
    write_misses = t.write_misses;
    evictions = t.evictions;
    dirty_evictions = t.dirty_evictions;
  }
