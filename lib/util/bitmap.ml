(* Bits are packed into OCaml ints, 62 usable bits per word.  62 is not a
   power of two so index arithmetic uses division, which is fine: these
   bitmaps are small and hot paths are word-level scans. *)

let bits_per_word = 62

type t = { words : int array; length : int }

let create n =
  assert (n >= 0);
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; length = n }

let check t i =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Bitmap: index %d out of bounds [0,%d)" i t.length)

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let get t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let set_range t pos len =
  for i = pos to pos + len - 1 do
    set t i
  done

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount w =
  let rec loop acc w = if w = 0 then acc else loop (acc + 1) (w land (w - 1)) in
  loop 0 w

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let iter_set t f =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      let low = !word land - !word in
      let b = Units.log2 low in
      f ((w * bits_per_word) + b);
      word := !word land lnot low
    done
  done

let segments t =
  let segs = ref [] in
  let start = ref (-1) in
  let prev = ref (-2) in
  let flush () = if !start >= 0 then segs := (!start, !prev - !start + 1) :: !segs in
  iter_set t (fun i ->
      if i <> !prev + 1 then begin
        flush ();
        start := i
      end;
      prev := i);
  flush ();
  List.rev !segs

let union_into ~dst ~src =
  if dst.length <> src.length then invalid_arg "Bitmap.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let copy t = { words = Array.copy t.words; length = t.length }
