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

(* Flush the line at [addr] from [upper], a level above one the line is
   leaving (inclusion would break otherwise), and say whether that copy was
   dirty. *)
let flush_dirty upper ~addr =
  match Cache.flush_block upper ~addr with
  | Cache.Dirty -> true
  | Cache.Absent | Cache.Clean -> false

(* An L2 victim leaves L1 too; its dirt, or L1's, sinks into the LLC. *)
let handle_l2_victim t =
  let addr = Cache.victim t.l2 in
  if addr >= 0 then begin
    let l1_dirty = flush_dirty t.l1 ~addr in
    if Cache.victim_dirty t.l2 || l1_dirty then ignore (Cache.set_dirty t.llc ~addr : bool)
  end

(* An LLC victim leaves L2 and L1 too; if any copy was dirty it goes to
   memory. *)
let handle_llc_victim t =
  let addr = Cache.victim t.llc in
  if addr >= 0 then begin
    note_victim t (Units.line_of_addr addr);
    let l2_dirty = flush_dirty t.l2 ~addr in
    let l1_dirty = flush_dirty t.l1 ~addr in
    if Cache.victim_dirty t.llc || l2_dirty || l1_dirty then begin
      t.writebacks <- t.writebacks + 1;
      t.on_writeback ~addr
    end
  end

let access_line t ~addr ~write =
  if Cache.access t.l1 ~addr ~write then 1
  else begin
    (* An L1 victim is present in L2 by inclusion; sink its dirt there. *)
    if Cache.victim_dirty t.l1 then
      ignore (Cache.set_dirty t.l2 ~addr:(Cache.victim t.l1) : bool);
    if Cache.access t.l2 ~addr ~write:false then 2
    else begin
      handle_l2_victim t;
      if Cache.access t.llc ~addr ~write:false then 3
      else begin
        handle_llc_victim t;
        note_fill t (Units.line_of_addr addr);
        t.memory_accesses <- t.memory_accesses + 1;
        t.on_fill ~addr:(Units.align_down addr ~alignment:Units.cache_line) ~write;
        4
      end
    end
  end

let access t event =
  let write = Access.is_write event in
  for line = Access.first_line event to Access.last_line event do
    ignore (access_line t ~addr:(line * Units.cache_line) ~write : int)
  done

(* Flush the lines of half page [half] that the filter lists, from the LLC,
   then L2 and L1, and cons each line some level held dirty onto [dirty],
   walking the mask downwards. *)
let flush_half t half dirty =
  let mask = take_mask t half in
  if mask <> 0 then
    for b = half_len - 1 downto 0 do
      if mask land (1 lsl b) <> 0 then begin
        let addr = ((half lsl half_bits) lor b) * Units.cache_line in
        let llc_dirty =
          match Cache.flush_block t.llc ~addr with
          | Cache.Dirty -> true
          | Cache.Clean -> false
          | Cache.Absent ->
              failwith
                (Printf.sprintf
                   "Hierarchy.flush_page: the snoop filter lists the line at %#x, which \
                    the LLC does not hold"
                   addr)
        in
        let l2_dirty = flush_dirty t.l2 ~addr in
        let l1_dirty = flush_dirty t.l1 ~addr in
        if llc_dirty || l2_dirty || l1_dirty then dirty := addr :: !dirty
      end
    done

(* By inclusion a line the LLC does not hold is in no upper level either, so
   only the lines the filter lists need flushing.  Walking the upper half
   page first leaves the consed list ascending. *)
let flush_page t ~page =
  let dirty = ref [] in
  let first = half_of (page * Units.lines_per_page) in
  flush_half t (first + 1) dirty;
  flush_half t first dirty;
  !dirty

let l1 t = t.l1
let l2 t = t.l2
let llc t = t.llc
let memory_accesses t = t.memory_accesses
let writebacks t = t.writebacks
