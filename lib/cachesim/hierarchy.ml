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

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  on_fill : addr:int -> write:bool -> unit;
  on_writeback : addr:int -> unit;
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
    memory_accesses = 0;
    writebacks = 0;
  }

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
              t.memory_accesses <- t.memory_accesses + 1;
              t.on_fill ~addr:(Units.align_down addr ~alignment:Units.cache_line) ~write;
              4))

let access t event =
  let write = Access.is_write event in
  Access.iter_lines event (fun line ->
      ignore (access_line t ~addr:(line * Units.cache_line) ~write : int))

(* By inclusion a line the LLC does not hold is in no upper level either, so
   only the LLC's lines need L1 and L2 flushed.  Walking the page downwards
   leaves the consed list ascending. *)
let flush_page t ~page =
  let dirty = ref [] in
  for i = Units.lines_per_page - 1 downto 0 do
    let addr = (page * Units.page_size) + (i * Units.cache_line) in
    match Cache.flush_block t.llc ~addr with
    | None -> ()
    | Some v ->
        if (back_invalidate [ t.l2; t.l1 ] v).Cache.dirty then dirty := addr :: !dirty
  done;
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
