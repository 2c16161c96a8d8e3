open Kona_util

type t = {
  controller : Rack_controller.t;
  batch : int;
  rpc : Kona_rdma.Rpc.t option;
  tenant : string option; (* quota identity for controller allocations *)
  (* slab-grain translation: VFMem slab index -> slab *)
  by_slab_index : (int, Slab.t) Hashtbl.t;
  (* page-grain overlay written by the migrator: vpage -> (node,
     page-base remote addr).  Consulted before the slab map, so a moved
     page translates to its new home while its slab-mates stay put. *)
  overrides : (int, int * int) Hashtbl.t;
  mutable slab_list : Slab.t list;
  mutable round_trips : int;
  mutable remaps : int;
}

let create ?(batch = 4) ?rpc ?tenant ~controller () =
  assert (batch > 0);
  {
    controller;
    batch;
    rpc;
    tenant;
    by_slab_index = Hashtbl.create 64;
    overrides = Hashtbl.create 64;
    slab_list = [];
    round_trips = 0;
    remaps = 0;
  }

let slab_bytes t = Rack_controller.slab_size t.controller
let slab_index t addr = addr / slab_bytes t

let slab_of t ~vaddr = Hashtbl.find_opt t.by_slab_index (slab_index t vaddr)

let allocate_batch t ~first_index =
  (* One controller round-trip provisions [batch] consecutive slabs,
     starting at the first unbacked index >= first_index. *)
  t.round_trips <- t.round_trips + 1;
  let serve () =
    let allocated = ref 0 in
    let index = ref first_index in
    while !allocated < t.batch do
      if not (Hashtbl.mem t.by_slab_index !index) then begin
        let slab =
          Rack_controller.allocate_slab ?tenant:t.tenant t.controller
            ~vaddr:(!index * slab_bytes t)
        in
        Hashtbl.add t.by_slab_index !index slab;
        t.slab_list <- slab :: t.slab_list;
        incr allocated
      end;
      incr index
    done
  in
  match t.rpc with
  | None -> serve ()
  | Some rpc ->
      (* request: one allocation descriptor; response: [batch] slab records *)
      Kona_rdma.Rpc.call rpc ~request_bytes:64 ~response_bytes:(t.batch * 64) serve ()

let ensure_backed t ~addr ~len =
  assert (len > 0);
  let first = slab_index t addr and last = slab_index t (addr + len - 1) in
  for index = first to last do
    if not (Hashtbl.mem t.by_slab_index index) then allocate_batch t ~first_index:index
  done

(* Map another tenant's published slabs into this address space at [at]:
   translation entries only, pointing at the publisher's remote locations.
   Foreign slabs are deliberately kept out of [slab_list], so owner-only
   sweeps ([slabs], [iter_backed_pages] — the integrity scrubber and
   divergence oracles) never claim pages this tenant merely borrows. *)
let map_foreign t ~at slabs =
  if at mod slab_bytes t <> 0 then
    invalid_arg "Resource_manager.map_foreign: unaligned map address";
  List.iteri
    (fun i (slab : Slab.t) ->
      if slab.Slab.size <> slab_bytes t then
        invalid_arg "Resource_manager.map_foreign: slab size mismatch";
      let vaddr = at + (i * slab_bytes t) in
      let index = slab_index t vaddr in
      if Hashtbl.mem t.by_slab_index index then
        invalid_arg
          (Printf.sprintf
             "Resource_manager.map_foreign: slab index %d already mapped" index);
      Hashtbl.add t.by_slab_index index { slab with Slab.vaddr })
    slabs

let translate t ~vaddr =
  match Hashtbl.find_opt t.overrides (vaddr / Units.page_size) with
  | Some (node, base) -> Some (node, base + (vaddr mod Units.page_size))
  | None ->
      Option.map
        (fun slab -> (slab.Slab.node, Slab.remote_of_vaddr slab ~vaddr))
        (slab_of t ~vaddr)

let remap_page t ~vpage ~node ~remote_addr =
  if remote_addr mod Units.page_size <> 0 then
    invalid_arg "Resource_manager.remap_page: unaligned remote address";
  Hashtbl.replace t.overrides vpage (node, remote_addr);
  t.remaps <- t.remaps + 1

let remaps t = t.remaps

let slabs t = List.rev t.slab_list
let controller_round_trips t = t.round_trips

let iter_backed_pages t f =
  List.iter
    (fun (slab : Slab.t) ->
      let pages = slab.Slab.size / Units.page_size in
      let first_page = slab.Slab.vaddr / Units.page_size in
      for i = 0 to pages - 1 do
        let vpage = first_page + i in
        let node, remote_addr =
          match Hashtbl.find_opt t.overrides vpage with
          | Some home -> home
          | None ->
              (slab.Slab.node, slab.Slab.remote_addr + (i * Units.page_size))
        in
        f ~vpage ~node ~remote_addr
      done)
    (slabs t)

type check = { checked : int; mismatches : int; lost : int }

let compare_remote t ~keep ~read_local =
  let page = Units.page_size in
  let checked = ref 0 and mismatches = ref 0 and lost = ref 0 in
  iter_backed_pages t (fun ~vpage ~node ~remote_addr ->
      if keep vpage then begin
        incr checked;
        match
          Memory_node.peek
            (Rack_controller.node t.controller ~id:node)
            ~addr:remote_addr ~len:page
        with
        | remote ->
            if remote <> read_local ~addr:(vpage * page) ~len:page then
              incr mismatches
        | exception Memory_node.Crashed _ -> incr lost
      end);
  { checked = !checked; mismatches = !mismatches; lost = !lost }
