open Kona_util

(* Each set is [assoc] consecutive slots of [slots], kept in recency order:
   the most recent block first, invalid slots ([empty]) at the tail.  A
   valid slot holds the block number shifted left by one with the dirty
   bit in bit 0.  A hit moves its slot to the front, a miss evicts the
   last slot (an invalid one while the set is not full), and a flush
   closes its gap, so the position is the whole LRU state. *)
let empty = -1

type t = {
  cache_name : string;
  block_bits : int;
  nsets : int;
  assoc : int;
  slots : int array;
  mutable victim : int; (* the last access's victim slot, or [empty] *)
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
  {
    cache_name = name;
    block_bits = Units.log2 block;
    nsets;
    assoc;
    slots = Array.make (nsets * assoc) empty;
    victim = empty;
    reads = 0;
    writes = 0;
    read_misses = 0;
    write_misses = 0;
    evictions = 0;
    dirty_evictions = 0;
  }

let addr_of_slot t slot = (slot lsr 1) lsl t.block_bits

(* The first slot of [slots.(i)] .. [slots.(last)] that holds [key] (a block
   number shifted left by one) or is invalid, else [last + 1].  Invalid
   slots are at the tail, so the block is resident iff the slot found is
   in the set and valid.  [int array] keeps [=] the integer compare. *)
let rec scan (slots : int array) key i last =
  if i > last then i
  else
    let s = slots.(i) in
    if s = empty || s land lnot 1 = key then i else scan slots key (i + 1) last

(* Move [slots.(first)] .. [slots.(hole - 1)] up one slot, over [hole]. *)
let shift_down (slots : int array) first hole =
  for j = hole downto first + 1 do
    slots.(j) <- slots.(j - 1)
  done

(* The slot of the block holding [addr], or -1. *)
let find t addr =
  let number = addr lsr t.block_bits in
  let first = number mod t.nsets * t.assoc in
  let last = first + t.assoc - 1 in
  let i = scan t.slots (number lsl 1) first last in
  if i <= last && t.slots.(i) <> empty then i else -1

let access t ~addr ~write =
  let number = addr lsr t.block_bits in
  let first = number mod t.nsets * t.assoc in
  let last = first + t.assoc - 1 in
  let slots = t.slots in
  let dirty_bit = if write then 1 else 0 in
  if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
  let i = scan slots (number lsl 1) first last in
  if i <= last && slots.(i) <> empty then begin
    let slot = slots.(i) lor dirty_bit in
    shift_down slots first i;
    slots.(first) <- slot;
    t.victim <- empty;
    true
  end
  else begin
    if write then t.write_misses <- t.write_misses + 1
    else t.read_misses <- t.read_misses + 1;
    (* [i] is the set's first invalid slot, or past a full set. *)
    let hole =
      if i <= last then begin
        t.victim <- empty;
        i
      end
      else begin
        let victim = slots.(last) in
        t.victim <- victim;
        t.evictions <- t.evictions + 1;
        t.dirty_evictions <- t.dirty_evictions + (victim land 1);
        last
      end
    in
    shift_down slots first hole;
    slots.(first) <- (number lsl 1) lor dirty_bit;
    false
  end

let victim t = if t.victim = empty then -1 else addr_of_slot t t.victim
let victim_dirty t = t.victim <> empty && t.victim land 1 = 1
let probe t ~addr = find t addr >= 0

let is_dirty t ~addr =
  let i = find t addr in
  i >= 0 && t.slots.(i) land 1 = 1

type flushed = Absent | Clean | Dirty

let flush_block t ~addr =
  let i = find t addr in
  if i < 0 then Absent
  else begin
    let slots = t.slots in
    let bit = slots.(i) land 1 in
    (* Close the gap: later slots move up one, the set's tail goes invalid. *)
    let last = (i / t.assoc * t.assoc) + t.assoc - 1 in
    for j = i to last - 1 do
      slots.(j) <- slots.(j + 1)
    done;
    slots.(last) <- empty;
    if bit = 1 then Dirty else Clean
  end

let set_dirty t ~addr =
  let i = find t addr in
  if i >= 0 then t.slots.(i) <- t.slots.(i) lor 1;
  i >= 0

let iter_resident t f =
  Array.iter
    (fun slot ->
      if slot <> empty then f ~block_addr:(addr_of_slot t slot) ~dirty:(slot land 1 = 1))
    t.slots

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
