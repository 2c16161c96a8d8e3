open Kona_util

(* One registered node: [logical_id] is the rack-wide identity slabs refer
   to; [backing] is the store currently serving it — swapped on replica
   failover, so translations outlive the crash of the original hardware.
   A draining slot keeps serving existing slabs but takes no new ones;
   the slot stays registered even after the drain completes so logical
   ids (and everything indexed by them) remain stable. *)
type slot = {
  logical_id : int;
  mutable backing : Memory_node.t;
  mutable draining : bool;
  (* Stores that used to serve this slot, newest first: failover swaps
     the backing but a falsely-declared-dead predecessor may still be
     live behind a partition — fencing and the at-most-one-primary
     invariant need to find it. *)
  mutable former : Memory_node.t list;
  (* Replica stores at backing offsets: every CL-log shipment to this
     slot lands on each of them too, and a failover promotes the first
     live one. *)
  mutable mirrors : Memory_node.t list;
}

exception
  Quota_exceeded of { tenant : string; quota : int; used : int; requested : int }

let () =
  Printexc.register_printer (function
    | Quota_exceeded { tenant; quota; used; requested } ->
        Some
          (Printf.sprintf
             "Rack_controller.Quota_exceeded: tenant %S at %d/%d bytes, slab \
              of %d rejected"
             tenant used quota requested)
    | _ -> None)

type t = {
  slab_size : int;
  mutable slots : slot array; (* registration order; grows one node at a time *)
  index : (int, int) Hashtbl.t; (* logical id -> slot position *)
  quotas : (string, int) Hashtbl.t; (* tenant -> byte cap *)
  used : (string, int) Hashtbl.t; (* tenant -> bytes allocated *)
  mutable next_node : int; (* round-robin cursor *)
  mutable next_slab_id : int;
  (* Backing-store id mint: replicas and promoted mirrors get their
     physical ids here so they can never collide with a logical id
     registered by a rack op.  [minted] remembers every id handed out —
     registering one of them later is a hard error, not a collision. *)
  mutable next_backing_id : int;
  minted : (int, unit) Hashtbl.t;
  (* Rack-global fencing epoch, monotone: bumped on every membership-
     triggered failover and stamped by every CL-log sender sharing this
     controller, so a fenced store can reject stale cross-tenant writes
     uniformly. *)
  mutable fencing_epoch : int;
  mutable replicas : int; (* mirrors per slot; 0 = unreplicated *)
  mutable failovers : int; (* promotions performed *)
  (* placement hook: consulted before the round-robin for every slab;
     returning a logical id steers the slab there if that node can take
     it. *)
  mutable placement : (vaddr:int -> tenant:string option -> int option) option;
}

let create ?(slab_size = Units.mib 1) () =
  assert (slab_size > 0 && slab_size mod Units.page_size = 0);
  {
    slab_size;
    slots = [||];
    index = Hashtbl.create 8;
    quotas = Hashtbl.create 8;
    used = Hashtbl.create 8;
    next_node = 0;
    next_slab_id = 0;
    next_backing_id = 1_000;
    minted = Hashtbl.create 8;
    fencing_epoch = 0;
    replicas = 0;
    failovers = 0;
    placement = None;
  }

let slab_size t = t.slab_size

(* Physical ids for replica/mirror stores: skip every registered logical
   id so a rack-op [add@T] and a re-replication can never mint the same
   id, whatever order they land in. *)
let mint_backing_id t =
  while Hashtbl.mem t.index t.next_backing_id || Hashtbl.mem t.minted t.next_backing_id
  do
    t.next_backing_id <- t.next_backing_id + 1
  done;
  let id = t.next_backing_id in
  Hashtbl.add t.minted id ();
  t.next_backing_id <- t.next_backing_id + 1;
  id

(* [replicas] fresh mirrors as large as [backing]: [replicate] gives
   them to every slot registered so far and [register_node] to each slot
   after, so a node added mid-run is as replicated as the first ones. *)
let mint_mirrors t backing =
  List.init t.replicas (fun _ ->
      Memory_node.create ~id:(mint_backing_id t)
        ~capacity:(Memory_node.capacity backing))

let register_node t node =
  let id = Memory_node.id node in
  if Hashtbl.mem t.index id then
    invalid_arg (Printf.sprintf "Rack_controller: memory node id %d already registered" id);
  if Hashtbl.mem t.minted id then
    invalid_arg
      (Printf.sprintf
         "Rack_controller: node id %d was minted for a replica backing store \
          (mint_backing_id); registering it as a logical node would alias two \
          physical stores"
         id);
  Hashtbl.add t.index id (Array.length t.slots);
  t.slots <-
    Array.append t.slots
      [|
        { logical_id = id; backing = node; draining = false; former = [];
          mirrors = mint_mirrors t node };
      |]

let nodes t = List.map (fun s -> s.backing) (Array.to_list t.slots)

let slot t ~id =
  match Hashtbl.find_opt t.index id with
  | Some pos -> t.slots.(pos)
  | None ->
      invalid_arg (Printf.sprintf "Rack_controller.node: unknown memory node id %d" id)

let node t ~id = (slot t ~id).backing

let replace_node t ~id ~node =
  let s = slot t ~id in
  s.former <- s.backing :: s.former;
  s.backing <- node

let former_backings t ~id = (slot t ~id).former
let logical_ids t = List.map (fun s -> s.logical_id) (Array.to_list t.slots)

(* Physical-store lookups: membership leases and fencing follow the
   store, not the logical slot — a displaced ex-backing keeps its
   physical id while the slot's backing moves on. *)
let find_physical t ~id =
  Array.fold_left
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None ->
          if Memory_node.id s.backing = id then Some s.backing
          else List.find_opt (fun n -> Memory_node.id n = id) s.former)
    None t.slots

let logical_backed_by t ~physical =
  Array.fold_left
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None ->
          if Memory_node.id s.backing = physical then Some s.logical_id
          else None)
    None t.slots

let all_physical t =
  List.concat_map
    (fun s -> s.backing :: s.former)
    (Array.to_list t.slots)

(* -------- mirrors (§4.5) -------- *)

let replicate t ~degree =
  if degree < 0 then invalid_arg "Rack_controller.replicate: negative degree";
  if degree <> t.replicas then begin
    if t.replicas > 0 then
      invalid_arg
        (Printf.sprintf
           "Rack_controller.replicate: already %d replica(s), asked for %d"
           t.replicas degree);
    t.replicas <- degree;
    Array.iter (fun s -> s.mirrors <- mint_mirrors t s.backing) t.slots
  end

let replicas t = t.replicas

let mirrors t ~id =
  match Hashtbl.find_opt t.index id with
  | Some pos -> t.slots.(pos).mirrors
  | None -> []

let live_copies t ~id =
  match Hashtbl.find_opt t.index id with
  | Some pos ->
      let s = t.slots.(pos) in
      List.filter Memory_node.alive (s.backing :: s.mirrors)
  | None -> []

(* Promote the first live mirror: it inherits the crashed backing's
   reservation mark (so existing slab translations stay valid) and takes
   over the slot.  Mirrors store data at backing offsets, so the
   promotion itself moves no bytes — only the re-replication that
   restores the degree does.  Dead mirrors leave the set with it. *)
let promote t ~id =
  let s = slot t ~id in
  match List.filter Memory_node.alive s.mirrors with
  | [] -> None
  | promoted :: rest ->
      Memory_node.adopt_reservations promoted ~brk:(Memory_node.used s.backing);
      replace_node t ~id ~node:promoted;
      s.mirrors <- rest;
      t.failovers <- t.failovers + 1;
      Some promoted

let add_mirror t ~id mirror =
  let s = slot t ~id in
  s.mirrors <- s.mirrors @ [ mirror ]

(* Scrap a half-cloned mirror: when the re-replication source dies before
   the clone completes, the incomplete copy must not stay promotable — a
   later failover onto it would serve partial data. *)
let remove_mirror t ~id ~physical =
  let s = slot t ~id in
  s.mirrors <- List.filter (fun m -> Memory_node.id m <> physical) s.mirrors

let crash_mirror t ~physical =
  Array.find_map
    (fun s ->
      match List.partition (fun m -> Memory_node.id m = physical) s.mirrors with
      | [], _ -> None
      | crashed, kept ->
          List.iter Memory_node.crash crashed;
          s.mirrors <- kept;
          Some s.logical_id)
    t.slots

let failovers t = t.failovers

let lines_replicated t =
  Array.fold_left
    (fun acc s ->
      List.fold_left (fun a m -> a + Memory_node.lines_received m) acc s.mirrors)
    0 t.slots

(* A crashed mirror is a lost replica, not a divergent one; the mirrors
   of a crashed, not yet promoted backing have no reference to differ
   from. *)
let divergent_mirrors t =
  Array.fold_left
    (fun acc s ->
      match s.mirrors with
      | [] -> acc
      | _ when not (Memory_node.alive s.backing) -> acc
      | mirrors ->
          let used = Memory_node.used s.backing in
          let image n = if used = 0 then "" else Memory_node.peek n ~addr:0 ~len:used in
          let reference = image s.backing in
          List.fold_left
            (fun a m -> if Memory_node.alive m && image m <> reference then a + 1 else a)
            acc mirrors)
    0 t.slots

let bump_fencing_epoch t =
  t.fencing_epoch <- t.fencing_epoch + 1;
  t.fencing_epoch

let fencing_epoch t = t.fencing_epoch
let set_draining t ~id draining = (slot t ~id).draining <- draining
let draining t ~id = (slot t ~id).draining
let set_placement t choose = t.placement <- Some choose
let free_bytes t ~id = Memory_node.free_bytes (slot t ~id).backing
let used_bytes t ~id = Memory_node.used (slot t ~id).backing

let set_quota t ~tenant ~bytes =
  if bytes < 0 then invalid_arg "Rack_controller.set_quota: negative quota";
  Hashtbl.replace t.quotas tenant bytes

let quota t ~tenant = Hashtbl.find_opt t.quotas tenant

let tenant_used t ~tenant =
  match Hashtbl.find_opt t.used tenant with Some b -> b | None -> 0

(* Admission control: reject past the cap before touching any node; usage
   is committed only once a slab is actually handed out. *)
let admit t ~tenant =
  match tenant with
  | None -> ()
  | Some tenant -> (
      let used = tenant_used t ~tenant in
      match Hashtbl.find_opt t.quotas tenant with
      | Some quota when used + t.slab_size > quota ->
          raise
            (Quota_exceeded { tenant; quota; used; requested = t.slab_size })
      | Some _ | None -> ())

let commit t ~tenant =
  match tenant with
  | None -> ()
  | Some tenant ->
      Hashtbl.replace t.used tenant (tenant_used t ~tenant + t.slab_size)

let usable t s =
  Memory_node.alive s.backing
  && (not s.draining)
  && Memory_node.free_bytes s.backing >= t.slab_size

let grant t ~tenant ~vaddr s =
  let remote_addr = Memory_node.reserve s.backing ~size:t.slab_size in
  let slab =
    {
      Slab.id = t.next_slab_id;
      node = s.logical_id;
      vaddr;
      remote_addr;
      size = t.slab_size;
    }
  in
  t.next_slab_id <- t.next_slab_id + 1;
  commit t ~tenant;
  slab

let allocate_slab ?tenant t ~vaddr =
  let n = Array.length t.slots in
  if n = 0 then failwith "Rack_controller: no memory nodes registered";
  admit t ~tenant;
  let preferred =
    match t.placement with
    | None -> None
    | Some choose -> (
        match choose ~vaddr ~tenant with
        | None -> None
        | Some id -> (
            match Hashtbl.find_opt t.index id with
            | Some pos ->
                let s = t.slots.(pos) in
                if usable t s then Some s else None
            | None -> None))
  in
  match preferred with
  | Some s -> grant t ~tenant ~vaddr s
  | None ->
      let rec try_node attempts =
        if attempts = n then raise Out_of_memory
        else begin
          let candidate = t.slots.(t.next_node mod n) in
          t.next_node <- t.next_node + 1;
          if usable t candidate then grant t ~tenant ~vaddr candidate
          else try_node (attempts + 1)
        end
      in
      try_node 0


let slabs_allocated t = t.next_slab_id
