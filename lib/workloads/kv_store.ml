open Kona_util

(* Entry layout in the arena:
     [next:8][keylen:4][vallen:4][key bytes][value bytes]
   Buckets are an array of 8-byte entry addresses (0 = empty). *)

let header_len = 16

type t = { heap : Heap.t; buckets : int; table : int; mutable entries : int }

let create heap ~nbuckets =
  if not (Units.is_power_of_two nbuckets) then
    invalid_arg "Kv_store.create: nbuckets must be a power of two";
  let table = Heap.alloc heap (8 * nbuckets) in
  (* The arena is zero-initialized, but make the initial bucket clears
     explicit: a real server memsets its table. *)
  for i = 0 to nbuckets - 1 do
    Heap.write_u64 heap (table + (8 * i)) 0
  done;
  { heap; buckets = nbuckets; table; entries = 0 }

(* FNV-1a (62-bit truncated); computed on the OCaml string (register work,
   not memory). *)
let hash key =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  !h land max_int

let attach heap ~nbuckets ~table ~entries =
  if not (Units.is_power_of_two nbuckets) then
    invalid_arg "Kv_store.attach: nbuckets must be a power of two";
  { heap; buckets = nbuckets; table; entries }

let table_addr t = t.table
let bucket_addr t key = t.table + (8 * (hash key land (t.buckets - 1)))

(* Walk the chain; returns the entry whose key matches, if any. *)
let find_entry t key =
  let heap = t.heap in
  let rec walk addr =
    if addr = 0 then None
    else
      let keylen = Heap.read_u32 heap (addr + 8) in
      if keylen = String.length key && Heap.memcmp heap (addr + header_len) key then
        Some addr
      else walk (Heap.read_u64 heap addr)
  in
  walk (Heap.read_u64 heap (bucket_addr t key))

let entry_size ~keylen ~vallen = header_len + keylen + vallen

let set t key value =
  let heap = t.heap in
  match find_entry t key with
  | Some addr when Heap.read_u32 heap (addr + 12) = String.length value ->
      (* Same-size value: overwrite in place, like Redis SDS reuse. *)
      Heap.write_string heap (addr + header_len + String.length key) value
  | Some addr ->
      (* Size changed: unlink is skipped (we replace head-of-chain style by
         rewriting the entry's value storage).  Free old, allocate new, and
         splice it where the old one was reachable from. *)
      let keylen = String.length key in
      let old_vallen = Heap.read_u32 heap (addr + 12) in
      let next = Heap.read_u64 heap addr in
      Heap.free heap ~addr ~len:(entry_size ~keylen ~vallen:old_vallen);
      let fresh = Heap.alloc heap (entry_size ~keylen ~vallen:(String.length value)) in
      Heap.write_u64 heap fresh next;
      Heap.write_u32 heap (fresh + 8) keylen;
      Heap.write_u32 heap (fresh + 12) (String.length value);
      Heap.write_string heap (fresh + header_len) key;
      Heap.write_string heap (fresh + header_len + keylen) value;
      (* Re-walk the chain to relink the predecessor. *)
      let bucket = bucket_addr t key in
      let rec relink prev_slot cursor =
        if cursor = addr then Heap.write_u64 heap prev_slot fresh
        else if cursor = 0 then ()
        else relink cursor (Heap.read_u64 heap cursor)
      in
      relink bucket (Heap.read_u64 heap bucket)
  | None ->
      let keylen = String.length key in
      let addr = Heap.alloc heap (entry_size ~keylen ~vallen:(String.length value)) in
      let bucket = bucket_addr t key in
      let head = Heap.read_u64 heap bucket in
      Heap.write_u64 heap addr head;
      Heap.write_u32 heap (addr + 8) keylen;
      Heap.write_u32 heap (addr + 12) (String.length value);
      Heap.write_string heap (addr + header_len) key;
      Heap.write_string heap (addr + header_len + keylen) value;
      Heap.write_u64 heap bucket addr;
      t.entries <- t.entries + 1

let get t key =
  match find_entry t key with
  | None -> None
  | Some addr ->
      let keylen = Heap.read_u32 t.heap (addr + 8) in
      let vallen = Heap.read_u32 t.heap (addr + 12) in
      Some (Heap.read_bytes t.heap (addr + header_len + keylen) vallen)

let entries t = t.entries

type pattern = Rand | Seq | Zipf of float
type driver_result = { sets : int; gets : int; hits : int }

let key_of_int i = Printf.sprintf "key:%012d" i

(* Deterministic value content so integrity checks can recompute it. *)
let value_for ~value_len i generation =
  let seed = Printf.sprintf "v%d:%d:" generation i in
  let buf = Buffer.create value_len in
  while Buffer.length buf < value_len do
    Buffer.add_string buf seed
  done;
  Buffer.sub buf 0 value_len

let run_driver t ~rng ~pattern ~keys ~ops ~value_len ~set_ratio =
  assert (keys > 0 && ops >= 0 && set_ratio >= 0. && set_ratio <= 1.);
  (* Load phase. *)
  for i = 0 to keys - 1 do
    set t (key_of_int i) (value_for ~value_len i 0)
  done;
  let sets = ref keys and gets = ref 0 and hits = ref 0 in
  let next_seq = ref 0 in
  let pick () =
    match pattern with
    | Rand -> Rng.int rng keys
    | Zipf theta -> Rng.zipf rng ~n:keys ~theta
    | Seq ->
        let k = !next_seq in
        next_seq := (k + 1) mod keys;
        k
  in
  for op = 0 to ops - 1 do
    let k = pick () in
    if Rng.float rng 1.0 < set_ratio then begin
      set t (key_of_int k) (value_for ~value_len k (1 + (op / keys)));
      incr sets
    end
    else begin
      incr gets;
      match get t (key_of_int k) with Some _ -> incr hits | None -> ()
    end
  done;
  { sets = !sets; gets = !gets; hits = !hits }
