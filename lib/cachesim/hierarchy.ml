open Kona_util
module Access = Kona_trace.Access

type level_config = { size : int; assoc : int }
type config = { l1 : level_config; l2 : level_config; llc : level_config }

let default_config =
  {
    l1 = { size = Units.kib 32; assoc = 8 };
    l2 = { size = Units.kib 128; assoc = 8 };
    llc = { size = Units.mib 1; assoc = 16 };
  }

(* The snoop filter is exact: for each half page (32 lines, one int) the
   mask of its lines the LLC holds, kept on every LLC fill and victim, so
   [flush_page] visits only the lines it lists instead of probing all 64.
   Half page [h] lives in chunk [h lsr chunk_bits] of [snoop], which covers
   4,096 half pages (8 MiB) and is allocated when one of its lines first
   enters the LLC; an absent chunk is [[||]] and reads as 0. *)
let half_bits = 5
let half_len = 1 lsl half_bits
let chunk_bits = 12
let chunk_len = 1 lsl chunk_bits

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  on_fill : addr:int -> write:bool -> unit;
  on_writeback : addr:int -> unit;
  mutable snoop : int array array;
  mutable memory_accesses : int;
  mutable writebacks : int;
}

let create ?(config = default_config) ?(on_fill = fun ~addr:_ ~write:_ -> ())
    ?(on_writeback = fun ~addr:_ -> ()) () =
  let line = Units.cache_line in
  let mk name (c : level_config) = Cache.create ~name ~size:c.size ~assoc:c.assoc ~block:line in
  {
    l1 = mk "L1d" config.l1;
    l2 = mk "L2" config.l2;
    llc = mk "LLC" config.llc;
    on_fill;
    on_writeback;
    snoop = [||];
    memory_accesses = 0;
    writebacks = 0;
  }

let half_of line = line lsr half_bits
let bit_of line = 1 lsl (line land (half_len - 1))
let entry_of half = half land (chunk_len - 1)

let note_fill t line =
  let half = half_of line in
  let c = half lsr chunk_bits in
  let n = Array.length t.snoop in
  if c >= n then begin
    let grown = Array.make (max (c + 1) (2 * n)) [||] in
    Array.blit t.snoop 0 grown 0 n;
    t.snoop <- grown
  end;
  if Array.length t.snoop.(c) = 0 then t.snoop.(c) <- Array.make chunk_len 0;
  let chunk = t.snoop.(c) and i = entry_of half in
  chunk.(i) <- chunk.(i) lor bit_of line

(* The victim's fill allocated its chunk. *)
let note_victim t line =
  let half = half_of line in
  let chunk = t.snoop.(half lsr chunk_bits) and i = entry_of half in
  chunk.(i) <- chunk.(i) land lnot (bit_of line)

(* Read and zero half page [half]'s mask. *)
let take_mask t half =
  let c = half lsr chunk_bits in
  if c >= Array.length t.snoop || Array.length t.snoop.(c) = 0 then 0
  else begin
    let chunk = t.snoop.(c) and i = entry_of half in
    let mask = chunk.(i) in
    chunk.(i) <- 0;
    mask
  end

(* Evicting a victim from [level]: upper levels may hold the line (inclusion
   violation about to happen) — flush them and fold their dirty bits in. *)
let back_invalidate uppers (victim : Cache.evicted) =
  List.fold_left
    (fun (v : Cache.evicted) upper ->
      match Cache.flush_block upper ~addr:v.Cache.block_addr with
      | Some { Cache.dirty = true; _ } -> { v with Cache.dirty = true }
      | Some _ | None -> v)
    victim uppers

let handle_l2_victim t = function
  | None -> ()
  | Some victim ->
      let victim = back_invalidate [ t.l1 ] victim in
      if victim.Cache.dirty then
        ignore (Cache.set_dirty t.llc ~addr:victim.Cache.block_addr : bool)

let handle_llc_victim t = function
  | None -> ()
  | Some victim ->
      note_victim t (Units.line_of_addr victim.Cache.block_addr);
      let victim = back_invalidate [ t.l2; t.l1 ] victim in
      if victim.Cache.dirty then begin
        t.writebacks <- t.writebacks + 1;
        t.on_writeback ~addr:victim.Cache.block_addr
      end

let access_line t ~addr ~write =
  match Cache.access t.l1 ~addr ~write with
  | Cache.Hit -> 1
  | Cache.Miss l1_victim ->
      (* An L1 victim is present in L2 by inclusion; sink its dirt there. *)
      (match l1_victim with
      | Some { Cache.block_addr; dirty = true } ->
          ignore (Cache.set_dirty t.l2 ~addr:block_addr : bool)
      | Some _ | None -> ());
      (match Cache.access t.l2 ~addr ~write:false with
      | Cache.Hit -> 2
      | Cache.Miss l2_victim -> (
          handle_l2_victim t l2_victim;
          match Cache.access t.llc ~addr ~write:false with
          | Cache.Hit -> 3
          | Cache.Miss llc_victim ->
              handle_llc_victim t llc_victim;
              note_fill t (Units.line_of_addr addr);
              t.memory_accesses <- t.memory_accesses + 1;
              t.on_fill ~addr:(Units.align_down addr ~alignment:Units.cache_line) ~write;
              4))

let access t event =
  let write = Access.is_write event in
  Access.iter_lines event (fun line ->
      ignore (access_line t ~addr:(line * Units.cache_line) ~write : int))

(* By inclusion a line the LLC does not hold is in no upper level either, so
   only the lines the filter lists need flushing: from the LLC, then L2 and
   L1.  Walking the upper half page first and each mask downwards leaves the
   consed list ascending. *)
let flush_page t ~page =
  let dirty = ref [] in
  let flush_half half =
    let mask = take_mask t half in
    if mask <> 0 then
      for b = half_len - 1 downto 0 do
        if mask land (1 lsl b) <> 0 then begin
          let addr = ((half lsl half_bits) lor b) * Units.cache_line in
          match Cache.flush_block t.llc ~addr with
          | None ->
              failwith
                (Printf.sprintf
                   "Hierarchy.flush_page: the snoop filter lists the line at %#x, which \
                    the LLC does not hold"
                   addr)
          | Some v ->
              if (back_invalidate [ t.l2; t.l1 ] v).Cache.dirty then dirty := addr :: !dirty
        end
      done
  in
  let first = half_of (page * Units.lines_per_page) in
  flush_half (first + 1);
  flush_half first;
  !dirty

let resident_dirty_lines t ~page =
  let dirty = ref [] in
  for i = 0 to Units.lines_per_page - 1 do
    let addr = (page * Units.page_size) + (i * Units.cache_line) in
    if Cache.is_dirty t.l1 ~addr || Cache.is_dirty t.l2 ~addr || Cache.is_dirty t.llc ~addr
    then dirty := addr :: !dirty
  done;
  List.rev !dirty

let l1 t = t.l1
let l2 t = t.l2
let llc t = t.llc
let memory_accesses t = t.memory_accesses
let writebacks t = t.writebacks
