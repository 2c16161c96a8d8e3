(* CRC32C, reflected polynomial 0x82F63B78, standard init/xor-out
   0xFFFFFFFF.  Slicing-by-8: eight bytes per step, read as one
   little-endian word and folded through eight 256-entry tables, then a
   bytewise tail.  Pure OCaml and dependency-free. *)

let poly = 0x82F63B78
let mask32 = 0xFFFFFFFF

(* Entry [k * 256 + n] is the CRC register after byte [n] followed by [k]
   zero bytes; slice 0 is the classic bytewise table. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := (!c lsr 1) lxor poly else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Both entry points check [pos, pos+len) against [buf] once, so the word
   and byte reads below stay in range; every table index is a slice offset
   plus a byte (masked, or the top byte of a 32-bit value), below 2048.  So
   the reads go unchecked, which takes one word and eight table bounds
   checks off every 8 bytes. *)
let kernel buf ~pos ~len =
  let t = table in
  let crc = ref mask32 and i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let w = get64u buf !i in
    let w = if Sys.big_endian then swap64 w else w in
    let lo = !crc lxor (Int64.to_int w land mask32) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      Array.unsafe_get t (0x700 + (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    crc :=
      (!crc lsr 8)
      lxor Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF)
  done;
  !crc lxor mask32

let digest_bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32c.digest_bytes";
  kernel buf ~pos ~len

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32c.digest_sub";
  kernel (Bytes.unsafe_of_string s) ~pos ~len
