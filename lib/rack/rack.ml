module Units = Kona_util.Units
module Histogram = Kona_util.Histogram
module Workloads = Kona_workloads.Workloads
module Heap = Kona_workloads.Heap
module Access = Kona_trace.Access
module Hub = Kona_telemetry.Hub
module Registry = Kona_telemetry.Registry
module Snapshot = Kona_telemetry.Snapshot
module Json = Kona_telemetry.Json
module Directory = Kona_coherence.Directory
module Heat = Kona_placement.Heat
module Placement_policy = Kona_placement.Placement_policy
module Migrator = Kona_placement.Migrator
module Recovery = Kona_membership.Recovery
module Fault_spec = Kona_faults.Fault_spec
open Kona

type tenant_cfg = {
  name : string;
  workload : string;
  bw_share : int;
  mem_quota : int option;
  seed : int;
}

type config = {
  scale : Workloads.scale;
  nodes : int;
  node_capacity : int;
  node_gbps : float;
  replicas : int;
  faults : Fault_spec.t;
  fault_seed : int;
  shared_pages : int;
  shared_ops : int;
  shared_writers : int;
  quantum : int;
  policy : string;
  fast_nodes : int;
  slow_extra_ns : int;
  ops : Rack_ops.t;
  runtime : Runtime.config;
}

let default_config =
  {
    scale = Workloads.Smoke;
    nodes = 2;
    node_capacity = Units.mib 128;
    node_gbps = 1.0;
    replicas = 0;
    faults = [];
    fault_seed = 42;
    shared_pages = 64;
    shared_ops = 256;
    shared_writers = 1;
    quantum = 256;
    policy = "first-fit";
    fast_nodes = 1;
    slow_extra_ns = 0;
    ops = [];
    runtime = Runtime.default_config;
  }

type tenant_result = {
  t_cfg : tenant_cfg;
  t_accesses : int;
  t_app_ns : int;
  t_elapsed_ns : int;
  t_admitted_bytes : int;
  t_contended_bytes : int;
  t_delay_ns : int;
  t_achieved_gbps : float;
  t_invalidations : int;
  t_mismatches : int;
  t_lost_pages : int;
  t_degraded : string option;
  t_fingerprint : string;
  t_snapshot : Snapshot.t;
}

type result = {
  r_tenants : tenant_result array;
  r_elapsed_ns : int;
  r_total_admits : int;
  r_saturated_admits : int;
  r_snoops : int;
  r_invalidations_sent : int;
  r_shared_writes : int;
  r_shared_reads : int;
  r_handoffs : int;
  r_owner_changes : int;
  r_coh_invalidations : int;
  r_node_crashes : int;
  r_migrations : int;
  r_bytes_moved : int;
  r_failed_moves : int;
  r_migrator_delay_ns : int;
  r_fetches : int;
  r_fetches_fast : int;
  r_remote_hit_pml : int;
  r_hot_hit_pml : int;
  r_drained_pages : int;
  r_drain_failures : int;
  r_ops_applied : int;
  r_snapshot : Snapshot.t;
}

(* The published segment lives at 1 GiB: far above any scaled-down heap
   (tens of MiB) and aligned for every slab size in use. *)
let shared_base = 1 lsl 30
let page = Units.page_size
let seg_first = shared_base / page

(* The placement migrator's fixed parameters: heat halves and the
   migrator runs once per 1 ms epoch, moving at most 32 pages, and its
   copies contend at every node's WFQ with weight 1. *)
let migrate_epoch_ns = Units.ms 1
let migrate_budget = 32
let migrate_share = 1

(* One replay step: a recorded application access, or a synthetic
   shared-segment operation (the publisher writes, readers read). *)
type step = App of Access.t | Shared_write of int | Shared_read of int

(* A paused rack simulation: [start] builds this record, [step] advances
   one scheduling slice, [finish] drains and runs the oracles.  Every
   piece of rack state lives here; the runtime and migrator hooks are
   closures over it. *)
type engine = {
  cfg : config;
  tenants : tenant_cfg array;
  controller : Rack_controller.t;
  placement : Placement_policy.t;
  hub : Hub.t;
  (* Tenant WFQ weights plus the migrator's slot at index [n]. *)
  weights : int array;
  (* One scheduler per registered node, indexed by node id. *)
  mutable wfq : Wfq.t array;
  heaps : Heap.t array;
  steps : step array array;
  pos : int array;
  (* Filled right after the record is built: each runtime's hooks close
     over the engine. *)
  mutable runtimes : Runtime.t array;
  heats : Heat.t array;
  (* Lazy because its environment closes over the record itself. *)
  migrator : Migrator.t Lazy.t;
  (* Rack-level recovery queue: drain re-homing runs here as a resumable
     task (a bounded batch of pages per engine step), so a crash or
     partition landing mid-drain interleaves with it instead of waiting
     behind a synchronous copy loop.  [finish] pumps it to idle. *)
  recovery : Recovery.t;
  mutable partitions_over : bool;
  (* Shared segment: published up front ([cfg.shared_pages > 0]) or
     later through [publish] (scenario ops). *)
  mutable seg_pages : int;
  mutable seg : Bytes.t;
  (* Read-mostly sharer tracking, driven by demand fetches. *)
  rack_dir : Directory.t;
  (* Multi-writer MSI home at cache-line granularity: it tracks granted
     permissions (not residency), so it is driven only by explicit
     shared-line accesses, never by demand fetches. *)
  mw_dir : Directory.t;
  mw_w : int;  (* tenants that write the segment *)
  recall_hist : Histogram.t;
  mutable mw_filter : bool;
  (* Synthetic shared-op ids past the woven ones: payload bytes never
     repeat. *)
  mutable shared_k : int;
  mutable invalidations_sent : int;
  mutable shared_writes : int;
  mutable shared_reads : int;
  mutable sharer_fills : int;
  mutable fetch_total : int;
  mutable fetch_fast : int;
  mutable hot_total : int;
  mutable hot_fast : int;
  mutable op_moves : int;
  mutable op_failed : int;
  mutable drained_pages : int;
  mutable drain_failures : int;
  mutable ops_applied : int;
  mutable pending_ops : Rack_ops.t;
  mutable finished : result option;
}

(* Firing order of scheduled ops: by time, ties in spec order. *)
let by_time ops =
  List.stable_sort (fun a b -> compare a.Rack_ops.at_ns b.Rack_ops.at_ns) ops

let validate cfg tenants =
  if tenants = [] then invalid_arg "Rack.run: no tenants";
  if cfg.nodes < 1 then invalid_arg "Rack.run: need at least one node";
  if cfg.shared_pages < 0 || cfg.shared_ops < 0 then
    invalid_arg "Rack.run: negative shared-segment parameters";
  if cfg.quantum < 1 then invalid_arg "Rack.run: quantum must be positive";
  if cfg.shared_writers < 1 then
    invalid_arg "Rack.run: shared_writers must be >= 1";
  (match Placement_policy.find cfg.policy with
  | (_ : Placement_policy.t) -> ()
  | exception Invalid_argument msg -> invalid_arg ("Rack.run: " ^ msg));
  (* Walk the ops in firing order: a drain may only name a node that
     exists by then — an original one or an earlier add. *)
  let nodes =
    List.fold_left
      (fun nodes { Rack_ops.at_ns; op } ->
        match op with
        | Rack_ops.Add_node _ -> nodes + 1
        | Rack_ops.Drain { id } when id < 0 || id >= nodes ->
            invalid_arg
              (Printf.sprintf
                 "Rack.run: drain at %d ns of node %d, which no earlier add \
                  has created"
                 at_ns id)
        | Rack_ops.Drain _ | Rack_ops.Rebalance -> nodes)
      cfg.nodes (by_time cfg.ops)
  in
  if cfg.fast_nodes < 0 || cfg.fast_nodes > nodes then
    invalid_arg "Rack.run: fast_nodes out of range";
  if cfg.slow_extra_ns < 0 then invalid_arg "Rack.run: negative slow_extra_ns";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun tc ->
      if tc.bw_share < 1 then
        invalid_arg
          (Printf.sprintf "Rack.run: tenant %s: bw_share must be >= 1" tc.name);
      if Hashtbl.mem seen tc.name then
        invalid_arg (Printf.sprintf "Rack.run: duplicate tenant name %s" tc.name);
      Hashtbl.add seen tc.name ();
      match Workloads.find tc.workload with
      | _ -> ()
      | exception Not_found ->
          invalid_arg
            (Printf.sprintf "Rack.run: tenant %s: unknown workload %s" tc.name
               tc.workload))
    tenants

let tenant_count e = Array.length e.tenants
let node_count e = Array.length e.wfq
let migrator e = Lazy.force e.migrator
let rm0 e = Runtime.resource_manager e.runtimes.(0)

let in_seg e vpage =
  e.seg_pages > 0 && vpage >= seg_first && vpage < seg_first + e.seg_pages

(* Anything at or above the shared base belongs to the published
   segment's slabs (including slab-rounding slack that readers map
   foreign); the migrator leaves that whole range alone — only drain
   re-homes it, remapping owner and readers together. *)
let in_seg_range e vpage = e.seg_pages > 0 && vpage >= seg_first

let now_ns e =
  Array.fold_left (fun a rt -> max a (Runtime.elapsed_ns rt)) 0 e.runtimes

let flush_logs e = Array.iter Runtime.flush_log e.runtimes

(* -------- rack fabric: node schedulers and placement -------- *)

(* Every registered node gets its WFQ scheduler and [rack.node.*] series
   at registration; the new node's id is the current node count. *)
let add_scheduler e =
  let w = Wfq.create ~gbps:e.cfg.node_gbps ~weights:e.weights in
  let labels = [ ("node", string_of_int (node_count e)) ] in
  e.wfq <- Array.append e.wfq [| w |];
  let reg = Hub.registry e.hub in
  Registry.counter_fn reg ~labels "rack.node.admits" (fun () ->
      Wfq.total_admits w);
  Registry.counter_fn reg ~labels "rack.node.saturated_admits" (fun () ->
      Wfq.saturated_admits w);
  Registry.gauge_fn reg ~labels "rack.node.peak_backlog_ns" (fun () ->
      Wfq.peak_backlog_ns w)

let add_node e ~capacity =
  let id = node_count e in
  Rack_controller.register_node e.controller (Memory_node.create ~id ~capacity);
  add_scheduler e;
  (* ids are minted by the controller's registry (disjoint from
     failover's fresh-mirror ids, minted via
     [Rack_controller.mint_backing_id]); the membership authority starts
     leasing the new node immediately *)
  Runtime.track_node e.runtimes.(0) ~id

(* Live nodes, ascending by id. *)
let node_infos e =
  List.init (node_count e) Fun.id
  |> List.filter_map (fun id ->
         let store = Rack_controller.node e.controller ~id in
         if not (Memory_node.alive store) then None
         else
           Some
             {
               Placement_policy.ni_node = id;
               ni_fast = id < e.cfg.fast_nodes;
               ni_free = Memory_node.free_bytes store;
               ni_capacity = Memory_node.capacity store;
               ni_draining = Rack_controller.draining e.controller ~id;
             })

(* A policy's slab choice over the live nodes; an allocation with no
   known tenant is placed as tenant 0's. *)
let choose_node e choose ~vaddr:_ ~tenant =
  let named tc = Some tc.name = tenant in
  let ti = Option.value (Array.find_index named e.tenants) ~default:0 in
  choose ~nodes:(node_infos e) ~tenant:ti

(* Two latency tiers: nodes past [fast_nodes] pay a fixed fabric penalty
   on top of WFQ queueing — what the heat policy optimizes against. *)
let arbitrate e i ~node ~op:_ ~len ~now =
  match node with
  | Some id when id >= 0 && id < node_count e ->
      Wfq.admit e.wfq.(id) ~tenant:i ~bytes:len ~now
      + if id >= e.cfg.fast_nodes then e.cfg.slow_extra_ns else 0
  | _ -> 0

let read_local e i ~addr ~len =
  if e.seg_pages > 0 && addr >= shared_base then
    Bytes.sub_string e.seg (addr - shared_base) len
  else Heap.peek_bytes e.heaps.(i) addr len

(* Which tenants a fault clause reaches, for the start-time plan and
   [inject] alike: a partition or link flap cuts the whole rack, so every
   tenant opens its window; any other clause reaches tenant 0 — it runs
   the rack's only failover (the shared controller tells the rest of a
   crash) and is the corruption target. *)
let reaches i = function
  | Fault_spec.Partition _ | Fault_spec.Link_flap _ -> true
  | _ -> i = 0

let create_runtime e i =
  let cfg = e.cfg in
  let config =
    {
      cfg.runtime with
      Runtime.tenant = Some e.tenants.(i).name;
      stream_base = i * 1024;
      replicas = cfg.replicas;
      faults = List.filter (reaches i) cfg.faults;
      fault_seed = cfg.fault_seed;
      (* Exactly one membership authority per rack: tenant 0 leases the
         nodes and triggers failover; the others stamp its fencing epoch
         from the shared controller.  Two detectors would race to promote
         different mirrors for one slot. *)
      heartbeat_ns = (if i = 0 then cfg.runtime.Runtime.heartbeat_ns else None);
    }
  in
  Runtime.create ~config
    ~hub:(Hub.scoped e.hub ~prefix:(Printf.sprintf "tenant.%d." i))
    ~arbitrate:(arbitrate e i) ~controller:e.controller
    ~read_local:(read_local e i) ()

(* -------- shared segment: tenant 0 publishes, the rest map -------- *)

(* Publish a shared segment: tenant 0 backs it, everyone else maps it
   foreign.  Runs at start when [cfg.shared_pages > 0], or mid-run via
   the engine adapter; a second publication is a no-op. *)
let publish e ~pages =
  if pages > 0 && e.seg_pages = 0 then begin
    e.seg_pages <- pages;
    (* Segment store: rounded up to slab granularity so the publisher's
       backing slabs are fully representable in the buffer.  Zero-filled,
       matching the memory nodes' stores: the divergence oracle compares
       whole pages, including bytes no woven op ever writes. *)
    let slab = Rack_controller.slab_size e.controller in
    let seg_len = ((pages * page) + slab - 1) / slab * slab in
    e.seg <- Bytes.make seg_len '\000';
    Resource_manager.ensure_backed (rm0 e) ~addr:shared_base
      ~len:(pages * page);
    let seg_slabs =
      Resource_manager.slabs (rm0 e)
      |> List.filter (fun s ->
             s.Slab.vaddr >= shared_base
             && s.Slab.vaddr < shared_base + seg_len)
      |> List.sort (fun a b -> compare a.Slab.vaddr b.Slab.vaddr)
    in
    for i = 1 to tenant_count e - 1 do
      Resource_manager.map_foreign
        (Runtime.resource_manager e.runtimes.(i))
        ~at:shared_base seg_slabs
    done
  end

(* Demand fetches of segment pages register the fetching tenant as a
   sharer with the rack directory. *)
let seg_fill e i vpage =
  if in_seg e vpage then begin
    e.sharer_fills <- e.sharer_fills + 1;
    Directory.on_fill ~sharer:i e.rack_dir ~line:(vpage - seg_first)
      ~write:false
  end

(* Recall [target]'s copy of segment page [vpage]: a background control
   message posted on [rt]'s QP that contends at the page's home node.
   [timed] recalls feed [coherence.recall_ns]. *)
let recall e rt ~vpage ~target ~timed =
  e.invalidations_sent <- e.invalidations_sent + 1;
  match Resource_manager.translate (rm0 e) ~vaddr:(vpage * page) with
  | Some (node, _) ->
      let t0 = Runtime.elapsed_ns rt in
      Runtime.post_bg_message rt ~node ~len:Units.cache_line ~deliver:(fun () ->
          if timed then
            Histogram.add e.recall_hist (max 0 (Runtime.elapsed_ns rt - t0));
          Runtime.invalidate_page e.runtimes.(target) ~vpage)
  | None -> ()

(* The publisher's dirty evictions recall every remote reader. *)
let seg_recall e vpage =
  if in_seg e vpage then
    List.iter
      (fun s ->
        if s <> 0 then
          recall e e.runtimes.(0) ~vpage ~target:s ~timed:false)
      (Directory.snoop_sharers e.rack_dir ~line:(vpage - seg_first))

(* -------- multi-writer MSI over the shared segment -------- *)

let payload_char k = Char.chr (((k * 37) + 1) land 0xff)

(* Writeback-race resolution: with several writers, two tenants' CL logs
   can carry entries for the same segment line, and cross-log delivery
   order is not capture order — a capacity-evicted copy lingering in one
   log could land {e after} the line's next owner already wrote back a
   newer value.  The home drops exactly those stale lines: [e.seg] is the
   coherence-ordered value sequence (every capture reads it), so a
   delivered line is stale iff its bytes no longer match.  Installed only
   in multi-writer mode — the single-publisher path never races and stays
   byte-identical. *)
let seg_home_off e ~node ~addr =
  let rec scan p =
    if p >= e.seg_pages then None
    else
      match Resource_manager.translate (rm0 e) ~vaddr:((seg_first + p) * page)
      with
      | Some (n', raddr) when n' = node && addr >= raddr && addr < raddr + page
        ->
          Some ((p * page) + (addr - raddr))
      | _ -> scan (p + 1)
  in
  scan 0

let enable_multi_writer e =
  if not e.mw_filter then begin
    e.mw_filter <- true;
    Array.iter
      (fun rt ->
        Runtime.set_writeback_filter rt (fun ~node ~addr ~data ->
            match seg_home_off e ~node ~addr with
            | Some off ->
                Bytes.sub_string e.seg off (String.length data) <> data
            | None -> false))
      e.runtimes
  end

(* One coherent access to shared-segment line [line] by [tenant]: the
   home directory grants it, and every copy the grant had to kill is
   recalled as a background control message through the requester's QP —
   it contends at the line's home node's WFQ link, so ownership
   ping-pong shows up in completion latencies.  The recalled holder's
   dirty data rides its own eviction/CL-log path (priced there).
   [false] when the access falls outside the published segment. *)
let shared_access e ~tenant ~line ~write ~payload =
  e.seg_pages > 0 && tenant >= 0 && tenant < tenant_count e && line >= 0
  && line < e.seg_pages * Units.lines_per_page
  && begin
       let off = line * Units.cache_line in
       let vpage = seg_first + (line / Units.lines_per_page) in
       let g = Directory.acquire e.mw_dir ~line ~tenant ~write in
       let rt = e.runtimes.(tenant) in
       let recall ~target = recall e rt ~vpage ~target ~timed:true in
       (match g.Directory.g_peer with
       | Some o when o <> tenant -> recall ~target:o
       | Some _ | None -> ());
       List.iter
         (fun s -> if s <> tenant then recall ~target:s)
         g.Directory.g_invalidated;
       (match payload with
       | Some c -> Bytes.fill e.seg off Units.cache_line c
       | None -> ());
       let addr = shared_base + off in
       Runtime.sink rt
         (if write then Access.write ~addr ~len:Units.cache_line
          else Access.read ~addr ~len:Units.cache_line);
       true
     end

(* -------- heat feed and fetch attribution -------- *)

let on_fetch e i ~vpage =
  let rt = e.runtimes.(i) in
  let now = Runtime.elapsed_ns rt in
  Heat.touch e.heats.(i) ~vpage ~weight:2 ~now;
  e.fetch_total <- e.fetch_total + 1;
  let hot = Heat.heat e.heats.(i) ~vpage ~now >= Placement_policy.hot_threshold in
  if hot then e.hot_total <- e.hot_total + 1;
  (match
     Resource_manager.translate (Runtime.resource_manager rt)
       ~vaddr:(vpage * page)
   with
  | Some (node, _) when node < e.cfg.fast_nodes ->
      e.fetch_fast <- e.fetch_fast + 1;
      if hot then e.hot_fast <- e.hot_fast + 1
  | _ -> ());
  seg_fill e i vpage

let on_evict e i ~vpage ~dirty =
  Heat.touch e.heats.(i) ~vpage ~weight:1
    ~now:(Runtime.elapsed_ns e.runtimes.(i));
  if i = 0 && dirty then seg_recall e vpage

(* -------- migration machinery -------- *)

(* Read one page from the first live copy, the (possibly failed-over)
   backing before its mirrors; a copy whose lines fail their at-rest CRCs
   is not a migration source — the scrubber owns it. *)
let read_page_bytes e ~node ~addr =
  List.find_map
    (fun s ->
      if Memory_node.verify_range s ~addr ~len:page <> [] then None
      else Some (Memory_node.peek s ~addr ~len:page))
    (Rack_controller.live_copies e.controller ~id:node)

(* A heat counter is born only from a fetch or an eviction of a page its
   tenant backs, and a backed page stays backed, so every counter outside
   the shared segment belongs to a backed page: folding over the counters
   settles exactly the ones a scan of the backed pages would, and builds
   a record only for a page with heat.  The full scan runs only when a
   policy reads cold pages; its heat reads at the same [now] settle
   nothing further. *)
let page_view ~heats ~rms ~shared ~now =
  let migratable vpage = not (shared vpage) in
  let hot = ref [] in
  Array.iteri
    (fun i rm ->
      hot :=
        Heat.fold heats.(i) ~now ~only:migratable
          (fun ~vpage ~heat acc ->
            if heat = 0 then acc
            else
              match Resource_manager.translate rm ~vaddr:(vpage * page) with
              | Some (node, _) ->
                  { Placement_policy.pi_vpage = vpage; pi_tenant = i;
                    pi_node = node; pi_heat = heat }
                  :: acc
              | None -> invalid_arg "Rack.page_view: heat on an unbacked page")
          !hot)
    rms;
  let hottest a b =
    let open Placement_policy in
    if a.pi_heat <> b.pi_heat then Int.compare b.pi_heat a.pi_heat
    else if a.pi_tenant <> b.pi_tenant then Int.compare a.pi_tenant b.pi_tenant
    else Int.compare a.pi_vpage b.pi_vpage
  in
  let hot = List.sort hottest !hot in
  let all =
    lazy
      (let cold = ref [] in
       Array.iteri
         (fun i rm ->
           Resource_manager.iter_backed_pages rm
             (fun ~vpage ~node ~remote_addr:_ ->
               if migratable vpage && Heat.heat heats.(i) ~vpage ~now = 0 then
                 cold :=
                   { Placement_policy.pi_vpage = vpage; pi_tenant = i;
                     pi_node = node; pi_heat = 0 }
                   :: !cold))
         rms;
       hot @ List.sort hottest !cold)
  in
  { Placement_policy.hot; all }

let epoch_pages e ~now =
  page_view ~heats:e.heats
    ~rms:(Array.map Runtime.resource_manager e.runtimes)
    ~shared:(in_seg_range e) ~now

(* Migration traffic is the migrator's WFQ weight slot (index [n]) at
   every node: its copies queue behind tenant traffic and tenant traffic
   queues behind its copies.  Idle slots never back-log, so a policy that
   never migrates leaves the schedule bit-identical. *)
let charge e ~node ~bytes ~now =
  Wfq.admit e.wfq.(node) ~tenant:(tenant_count e) ~bytes ~now

let homed_at rt ~vpage ~id ~addr =
  match
    Resource_manager.translate (Runtime.resource_manager rt)
      ~vaddr:(vpage * page)
  with
  | Some (node', addr') -> node' = id && addr' = addr
  | None -> false

(* The one page mover, for migration and drain alike: read a clean copy
   of [vpage] from its home [addr] on node [src], land it on [dst] and
   that node's mirrors (at the same offset, so post-move CL-log
   replication stays coherent), and retarget every tenant mapping still
   homed at the old copy — the owner's, and a shared page's foreign
   mappings.  The reserve bypasses the controller's quota path on
   purpose: a move relocates a tenant's bytes, it grants none.  [false]
   when no clean copy is readable or [dst] cannot take the page. *)
let relocate e ~vpage ~src ~addr ~dst =
  let store = Rack_controller.node e.controller ~id:dst in
  match read_page_bytes e ~node:src ~addr with
  | Some data
    when Memory_node.alive store && Memory_node.free_bytes store >= page ->
      let dst_addr = Memory_node.reserve store ~size:page in
      Memory_node.write store ~addr:dst_addr ~data;
      List.iter
        (fun m ->
          if Memory_node.alive m then Memory_node.write m ~addr:dst_addr ~data)
        (Rack_controller.mirrors e.controller ~id:dst);
      Array.iter
        (fun rt ->
          if homed_at rt ~vpage ~id:src ~addr then
            Resource_manager.remap_page
              (Runtime.resource_manager rt)
              ~vpage ~node:dst ~remote_addr:dst_addr)
        e.runtimes;
      true
  | Some _ | None -> false

(* A planned move of a page outside the shared segment; [Some src] names
   the node it left. *)
let move_page e
    { Placement_policy.mv_tenant = ti; mv_vpage = vpage; mv_dst = dst } =
  if in_seg_range e vpage then None
  else
    match
      Resource_manager.translate
        (Runtime.resource_manager e.runtimes.(ti))
        ~vaddr:(vpage * page)
    with
    | Some (src, addr) when src <> dst && relocate e ~vpage ~src ~addr ~dst ->
        Some src
    | Some _ | None -> None

let create_migrator e =
  Migrator.create ~policy:e.placement ~epoch_ns:migrate_epoch_ns
    ~budget:migrate_budget ~page_bytes:page
    {
      Migrator.nodes = (fun () -> node_infos e);
      pages = epoch_pages e;
      flush_logs = (fun () -> flush_logs e);
      move_page = move_page e;
      charge = charge e;
    }

(* -------- rack ops: add / drain / rebalance -------- *)

(* Most-free live non-draining node (node_infos ascending: ties break
   toward the lower id). *)
let choose_rehome e =
  List.fold_left
    (fun best ni ->
      if ni.Placement_policy.ni_draining || ni.Placement_policy.ni_free < page
      then best
      else
        match best with
        | Some b when ni.Placement_policy.ni_free <= b.Placement_policy.ni_free
          ->
            best
        | _ -> Some ni)
    None (node_infos e)

(* Re-home one drain victim now.  A victim already moved out from under
   us (migration or an earlier overlapping drain) is neither a drained
   page nor a failure. *)
let drain_one e ~now id (_, vpage, addr) =
  if Array.exists (homed_at ~vpage ~id ~addr) e.runtimes then
    match choose_rehome e with
    | Some { Placement_policy.ni_node = dst; _ }
      when relocate e ~vpage ~src:id ~addr ~dst ->
        e.drained_pages <- e.drained_pages + 1;
        ignore (charge e ~node:id ~bytes:page ~now);
        ignore (charge e ~node:dst ~bytes:page ~now)
    | Some _ | None -> e.drain_failures <- e.drain_failures + 1

let drain_pages_per_step = 16

let exec_drain e id =
  let name = Printf.sprintf "drain:%d" id in
  (* an overlapping drain of the same node would double-move the pages
     the pending task hasn't reached yet *)
  if not (List.mem name (Recovery.pending e.recovery)) then begin
    Rack_controller.set_draining e.controller ~id true;
    flush_logs e;
    (* Every owned page still homed on the node; a crashed-and-failed-
       over node drains from its promoted mirror (the controller's
       backing for [id]), or any live replica.  Victims are frozen now;
       each step revalidates its batch against the live translations. *)
    let victims = ref [] in
    Array.iteri
      (fun i rt ->
        Resource_manager.iter_backed_pages (Runtime.resource_manager rt)
          (fun ~vpage ~node ~remote_addr ->
            if node = id then victims := (i, vpage, remote_addr) :: !victims))
      e.runtimes;
    let todo = ref (List.sort compare !victims) in
    ignore
      (Recovery.enqueue e.recovery ~name (fun ~now ->
           if !todo = [] then `Done
           else if
             (* the drained node is inside a partition window: its pages
                are unreadable until the links heal, so the task parks
                (resumable, not failed) — [finish] lifts the block along
                with the runtimes' own deferred-delivery flush *)
             (not e.partitions_over)
             && Runtime.partition_active e.runtimes.(0) ~id
           then `Again
           else begin
             (* fence before copying: lines staged since the previous
                step (slices interleave with drain) still target the old
                home — ship them so the batch reads fresh bytes, while
                evictions of already-re-homed pages translate to the new
                home on their own *)
             flush_logs e;
             let rec batch budget =
               match !todo with
               | v :: rest when budget > 0 ->
                   todo := rest;
                   drain_one e ~now id v;
                   batch (budget - 1)
               | _ -> ()
             in
             batch drain_pages_per_step;
             if !todo = [] then `Done else `Again
           end))
  end

let exec_rebalance e ~now =
  flush_logs e;
  let balance = Placement_policy.centralized () in
  List.iter
    (fun mv ->
      match move_page e mv with
      | None -> e.op_failed <- e.op_failed + 1
      | Some src ->
          e.op_moves <- e.op_moves + 1;
          ignore (charge e ~node:src ~bytes:page ~now);
          ignore (charge e ~node:mv.Placement_policy.mv_dst ~bytes:page ~now))
    (balance.Placement_policy.plan ~nodes:(node_infos e)
       ~pages:(epoch_pages e ~now) ~budget:migrate_budget)

(* The one op executor, for the scheduled-op calendar and [apply_op]
   alike.  A drain of a node no add has created is refused ([validate]
   rules it out for scheduled ops), so generated sequences stay total. *)
let exec_op e ~now op =
  match op with
  | Rack_ops.Drain { id } when id < 0 || id >= node_count e -> ()
  | _ -> (
      e.ops_applied <- e.ops_applied + 1;
      match op with
      | Rack_ops.Add_node { capacity } ->
          add_node e
            ~capacity:(Option.value capacity ~default:e.cfg.node_capacity)
      | Rack_ops.Drain { id } -> exec_drain e id
      | Rack_ops.Rebalance -> exec_rebalance e ~now)

let fire_ops e ~now =
  if e.pending_ops <> [] then begin
    let due, rest =
      List.partition (fun c -> c.Rack_ops.at_ns <= now) e.pending_ops
    in
    e.pending_ops <- rest;
    List.iter (fun c -> exec_op e ~now c.Rack_ops.op) due
  end

(* -------- rack-level telemetry -------- *)

let total_moves e = Migrator.migrations (migrator e) + e.op_moves

let bytes_moved e =
  Migrator.bytes_moved (migrator e) + ((e.op_moves + e.drained_pages) * page)

let failed_moves e = Migrator.failed (migrator e) + e.op_failed
let permille num den = if den = 0 then 0 else num * 1000 / den

let wfq_sum e f = Array.fold_left (fun a w -> a + f w) 0 e.wfq

(* Tenant [i]'s WFQ statistic [f], summed over every node. *)
let tenant_sum e i f = wfq_sum e (fun w -> f (Wfq.tenant_stats w ~tenant:i))

let register_telemetry e =
  let reg = Hub.registry e.hub in
  let counter name f = Registry.counter_fn reg name (fun () -> f e) in
  let gauge name f = Registry.gauge_fn reg name (fun () -> f e) in
  Array.iteri
    (fun i tc ->
      let labels = [ ("tenant", tc.name) ] in
      let sum = tenant_sum e i in
      Registry.gauge_fn reg ~labels "rack.tenant.bw_share" (fun () ->
          tc.bw_share);
      Registry.counter_fn reg ~labels "rack.tenant.bytes" (fun () ->
          sum (fun s -> s.Wfq.bytes));
      Registry.counter_fn reg ~labels "rack.tenant.contended_bytes" (fun () ->
          sum (fun s -> s.Wfq.contended_bytes));
      Registry.counter_fn reg ~labels "rack.tenant.delay_ns" (fun () ->
          sum (fun s -> s.Wfq.delay_ns)))
    e.tenants;
  counter "rack.dir.fills" (fun e -> Directory.fills e.rack_dir);
  counter "rack.dir.snoops" (fun e -> Directory.snoops e.rack_dir);
  counter "rack.sharer_fills" (fun e -> e.sharer_fills);
  counter "rack.invalidations_sent" (fun e -> e.invalidations_sent);
  counter "rack.shared.writes" (fun e -> e.shared_writes);
  counter "rack.shared.reads" (fun e -> e.shared_reads);
  counter "coherence.handoffs" (fun e -> Directory.handoffs e.mw_dir);
  counter "coherence.invalidations" (fun e -> Directory.invalidations e.mw_dir);
  counter "coherence.owner_changes" (fun e -> Directory.owner_changes e.mw_dir);
  Registry.histogram_ref reg "coherence.recall_ns" e.recall_hist;
  counter "placement.migrations" total_moves;
  counter "placement.bytes_moved" bytes_moved;
  counter "placement.failed_moves" failed_moves;
  counter "placement.remaps" (fun e ->
      Array.fold_left
        (fun a rt -> a + Resource_manager.remaps (Runtime.resource_manager rt))
        0 e.runtimes);
  counter "placement.fetches" (fun e -> e.fetch_total);
  counter "placement.fetches_fast" (fun e -> e.fetch_fast);
  (* permille of demand fetches served by the slow tier — the number the
     heat policy exists to push down *)
  gauge "placement.remote_hit_ratio" (fun e ->
      permille (e.fetch_total - e.fetch_fast) e.fetch_total);
  gauge "placement.hot_hit_ratio" (fun e -> permille e.hot_fast e.hot_total);
  counter "placement.drained_pages" (fun e -> e.drained_pages);
  counter "placement.drain_failures" (fun e -> e.drain_failures);
  counter "placement.ops_applied" (fun e -> e.ops_applied)

(* -------- record and weave -------- *)

(* Record a tenant's workload against its own heap. *)
let record cfg tc =
  let spec = Workloads.find tc.workload in
  let acc = ref [] in
  let heap =
    Heap.create
      ~capacity:(spec.Workloads.heap_capacity cfg.scale)
      ~sink:(fun ev -> acc := ev :: !acc)
      ()
  in
  spec.Workloads.run cfg.scale ~heap ~seed:tc.seed;
  (heap, Array.of_list (List.rev !acc))

(* Weave synthetic shared ops into tenant [i]'s trace: op k's writer
   rotates over the first [mw_w] tenants; with one writer this is
   exactly the historical publisher/reader weave. *)
let weave cfg ~n ~mw_w i trace =
  let len = Array.length trace in
  if cfg.shared_pages = 0 || cfg.shared_ops = 0 || len = 0 || n < 2 then
    Array.map (fun e -> App e) trace
  else begin
    let stride = max 1 (len / cfg.shared_ops) in
    let out = ref [] and k = ref 0 in
    Array.iteri
      (fun j e ->
        out := App e :: !out;
        if (j + 1) mod stride = 0 && !k < cfg.shared_ops then begin
          out :=
            (if !k mod mw_w = i then Shared_write !k else Shared_read !k)
            :: !out;
          incr k
        end)
      trace;
    Array.of_list (List.rev !out)
  end

let start cfg tenant_list =
  validate cfg tenant_list;
  let tenants = Array.of_list tenant_list in
  let n = Array.length tenants in
  let controller = Rack_controller.create ~slab_size:(Units.mib 1) () in
  for id = 0 to cfg.nodes - 1 do
    Rack_controller.register_node controller
      (Memory_node.create ~id ~capacity:cfg.node_capacity)
  done;
  Array.iter
    (fun tc ->
      match tc.mem_quota with
      | Some bytes ->
          Rack_controller.set_quota controller ~tenant:tc.name ~bytes
      | None -> ())
    tenants;
  let recorded = Array.map (record cfg) tenants in
  let mw_w = max 1 (min n cfg.shared_writers) in
  let steps = Array.mapi (weave cfg ~n ~mw_w) (Array.map snd recorded) in
  let rec e =
    {
      cfg;
      tenants;
      controller;
      placement = Placement_policy.find cfg.policy;
      hub = Hub.create ();
      weights =
        Array.append
          (Array.map (fun tc -> tc.bw_share) tenants)
          [| migrate_share |];
      wfq = [||];
      heaps = Array.map fst recorded;
      steps;
      pos = Array.make n 0;
      runtimes = [||];
      heats =
        Array.init n (fun _ -> Heat.create ~epoch_ns:migrate_epoch_ns);
      migrator = lazy (create_migrator e);
      recovery = Recovery.create ();
      partitions_over = false;
      seg_pages = 0;
      seg = Bytes.empty;
      rack_dir = Directory.create ();
      mw_dir = Directory.create ();
      mw_w;
      recall_hist = Histogram.create ();
      mw_filter = false;
      shared_k = cfg.shared_ops;
      invalidations_sent = 0; shared_writes = 0; shared_reads = 0;
      sharer_fills = 0; fetch_total = 0; fetch_fast = 0;
      hot_total = 0; hot_fast = 0; op_moves = 0; op_failed = 0;
      drained_pages = 0; drain_failures = 0; ops_applied = 0;
      pending_ops = by_time cfg.ops;
      finished = None;
    }
  in
  for _ = 1 to cfg.nodes do
    add_scheduler e
  done;
  Option.iter
    (fun choose -> Rack_controller.set_placement controller (choose_node e choose))
    e.placement.Placement_policy.choose_node;
  e.runtimes <- Array.init n (create_runtime e);
  if cfg.shared_pages > 0 then publish e ~pages:cfg.shared_pages;
  if mw_w > 1 then enable_multi_writer e;
  Array.iteri
    (fun i rt ->
      Runtime.set_on_fetch rt (on_fetch e i);
      Runtime.set_on_evict rt (on_evict e i))
    e.runtimes;
  register_telemetry e;
  e

(* -------- deterministic interleaved replay -------- *)

let exec_step e i = function
  | App ev -> Runtime.sink e.runtimes.(i) ev
  | Shared_write k ->
      e.shared_writes <- e.shared_writes + 1;
      let p = k mod e.seg_pages in
      if e.mw_w > 1 then
        ignore
          (shared_access e ~tenant:i ~line:(p * Units.lines_per_page)
             ~write:true ~payload:(Some (payload_char k)))
      else begin
        Bytes.fill e.seg (p * page) Units.cache_line (payload_char k);
        Runtime.sink e.runtimes.(i)
          (Access.write ~addr:(shared_base + (p * page)) ~len:Units.cache_line);
        Directory.on_fill ~sharer:0 e.rack_dir ~line:p ~write:true
      end
  | Shared_read k ->
      e.shared_reads <- e.shared_reads + 1;
      let p = k mod e.seg_pages in
      if e.mw_w > 1 then
        ignore
          (shared_access e ~tenant:i ~line:(p * Units.lines_per_page)
             ~write:false ~payload:None)
      else
        Runtime.sink e.runtimes.(i)
          (Access.read ~addr:(shared_base + (p * page)) ~len:Units.cache_line)

(* One bounded step of the rack drain queue and of every tenant's
   recovery queue. *)
let step_recovery_at e ~now =
  ignore (Recovery.step e.recovery ~now);
  Array.iter (fun rt -> ignore (Runtime.step_recovery rt)) e.runtimes

(* One scheduling slice: step the tenant whose virtual clock is furthest
   behind for up to one quantum, then fire due rack ops and tick the
   migrator on that tenant's clock — fully deterministic.  Returns the
   number of accesses consumed; 0 = replay exhausted. *)
let step e =
  let best = ref (-1) and best_ns = ref max_int in
  Array.iteri
    (fun i rt ->
      if e.pos.(i) < Array.length e.steps.(i) then begin
        let ns = Runtime.elapsed_ns rt in
        if ns < !best_ns then begin
          best := i;
          best_ns := ns
        end
      end)
    e.runtimes;
  let i = !best in
  if i < 0 then 0
  else begin
    let consumed =
      min e.cfg.quantum (Array.length e.steps.(i) - e.pos.(i))
    in
    for _ = 1 to consumed do
      exec_step e i e.steps.(i).(e.pos.(i));
      e.pos.(i) <- e.pos.(i) + 1
    done;
    let now = Runtime.elapsed_ns e.runtimes.(i) in
    fire_ops e ~now;
    Migrator.tick (migrator e) ~now;
    (* one bounded recovery step per slice: the rack's drain re-homing
       and each tenant's failover/re-replication tasks make progress even
       for tenants whose replay is already exhausted (their own fault
       polls have stopped) *)
    step_recovery_at e ~now;
    consumed
  end

(* -------- per-tenant divergence oracle and results -------- *)

let tenant_result e i =
  let rt = e.runtimes.(i) in
  let heap = e.heaps.(i) in
  let unrepairable = Runtime.unrepairable_pages rt in
  let check =
    Resource_manager.compare_remote (Runtime.resource_manager rt)
      ~read_local:(read_local e i)
      ~keep:(fun vpage ->
        let private_page =
          (vpage + 1) * page <= Heap.capacity heap
          && not (Heap.page_poked heap ~page:vpage)
        in
        (private_page || in_seg e vpage) && not (List.mem vpage unrepairable))
  in
  let stats_sum = tenant_sum e i in
  let contended_bytes = stats_sum (fun s -> s.Wfq.contended_bytes) in
  let contended_ns = stats_sum (fun s -> s.Wfq.contended_ns) in
  let snap =
    Registry.snapshot
      (Registry.scoped (Hub.registry e.hub)
         ~prefix:(Printf.sprintf "tenant.%d." i))
  in
  {
    t_cfg = e.tenants.(i);
    t_accesses = Array.length e.steps.(i);
    t_app_ns = Runtime.app_ns rt;
    t_elapsed_ns = Runtime.elapsed_ns rt;
    t_admitted_bytes = stats_sum (fun s -> s.Wfq.bytes);
    t_contended_bytes = contended_bytes;
    t_delay_ns = stats_sum (fun s -> s.Wfq.delay_ns);
    t_achieved_gbps =
      (if contended_ns = 0 then 0.0
       else 8.0 *. float_of_int contended_bytes /. float_of_int contended_ns);
    t_invalidations = Runtime.count rt "coherence.invalidations";
    t_mismatches = check.Resource_manager.mismatches;
    t_lost_pages = check.Resource_manager.lost;
    t_degraded = Runtime.degraded rt;
    t_fingerprint = Json.to_string (Snapshot.to_json snap);
    t_snapshot = snap;
  }

let finish e =
  match e.finished with
  | Some r -> r
  | None ->
      (* every partition window is over by msync time: the runtimes'
         drains flush their deferred deliveries, and the rack drain tasks
         stop parking on partitioned sources *)
      e.partitions_over <- true;
      Array.iter Runtime.drain e.runtimes;
      (* ops scheduled past the last replayed access still run (a drain
         must re-home its pages no matter how short the workload was) *)
      fire_ops e ~now:max_int;
      (* pump the rack recovery queue dry at the rack's final time: a
         drain interrupted by a crash or partition mid-run completes
         here, after the fault *)
      let final_now = now_ns e in
      Recovery.run_to_idle e.recovery ~now:(fun () -> final_now);
      let r_tenants = Array.init (tenant_count e) (tenant_result e) in
      let m = migrator e in
      let r =
        {
          r_tenants;
          r_elapsed_ns =
            Array.fold_left (fun a r -> max a r.t_elapsed_ns) 0 r_tenants;
          r_total_admits = wfq_sum e Wfq.total_admits;
          r_saturated_admits = wfq_sum e Wfq.saturated_admits;
          r_snoops = Directory.snoops e.rack_dir;
          r_invalidations_sent = e.invalidations_sent;
          r_shared_writes = e.shared_writes;
          r_shared_reads = e.shared_reads;
          r_handoffs = Directory.handoffs e.mw_dir;
          r_owner_changes = Directory.owner_changes e.mw_dir;
          r_coh_invalidations = Directory.invalidations e.mw_dir;
          r_node_crashes =
            Array.fold_left
              (fun a rt -> a + Runtime.count rt "faults.node_crashes")
              0 e.runtimes;
          r_migrations = total_moves e;
          r_bytes_moved = bytes_moved e;
          r_failed_moves = failed_moves e;
          r_migrator_delay_ns = Migrator.charged_ns m;
          r_fetches = e.fetch_total;
          r_fetches_fast = e.fetch_fast;
          r_remote_hit_pml =
            permille (e.fetch_total - e.fetch_fast) e.fetch_total;
          r_hot_hit_pml = permille e.hot_fast e.hot_total;
          r_drained_pages = e.drained_pages;
          r_drain_failures = e.drain_failures;
          r_ops_applied = e.ops_applied;
          r_snapshot = Hub.snapshot e.hub;
        }
      in
      e.finished <- Some r;
      r

(* -------- op adapters -------- *)

(* Immediate op application for the scenario engine, at the rack's
   current virtual time. *)
let apply_op e op = exec_op e ~now:(now_ns e) op

(* Synthetic shared-segment rounds past the woven ones: ids continue
   where the weave stopped so payload bytes never repeat. *)
let next_shared_k e =
  let k = e.shared_k in
  e.shared_k <- k + 1;
  k

let shared_round e =
  if e.seg_pages > 0 then begin
    let k = next_shared_k e in
    exec_step e 0 (Shared_write k);
    for i = 1 to tenant_count e - 1 do
      exec_step e i (Shared_read k)
    done
  end

(* One multi-writer round: op ids share the [shared_k] sequence so
   payload bytes never collide with woven or single-writer rounds; the
   writer rotates over the first [mw_w] tenants, everyone else reads the
   same line — by construction an ownership ping-pong. *)
let multi_writer_round e =
  if e.seg_pages > 0 then begin
    let k = next_shared_k e in
    let writer = k mod e.mw_w in
    let line = k mod e.seg_pages * Units.lines_per_page in
    e.shared_writes <- e.shared_writes + 1;
    ignore
      (shared_access e ~tenant:writer ~line ~write:true
         ~payload:(Some (payload_char k)));
    for i = 0 to tenant_count e - 1 do
      if i <> writer then begin
        e.shared_reads <- e.shared_reads + 1;
        ignore (shared_access e ~tenant:i ~line ~write:false ~payload:None)
      end
    done
  end

let shared_line_write e ~tenant ~line ~payload =
  if shared_access e ~tenant ~line ~write:true ~payload:(Some payload) then
    e.shared_writes <- e.shared_writes + 1

let shared_line_read e ~tenant ~line =
  if shared_access e ~tenant ~line ~write:false ~payload:None then
    e.shared_reads <- e.shared_reads + 1

(* The single-owner-per-line invariant: the MSI home table must be
   internally coherent and never grant ownership to a non-tenant. *)
let coherence_audit e =
  let bad = ref (Directory.audit e.mw_dir) in
  for line = 0 to (e.seg_pages * Units.lines_per_page) - 1 do
    match Directory.owner e.mw_dir ~line with
    | Some o when o < 0 || o >= tenant_count e ->
        bad := Printf.sprintf "line %d: owner %d is not a tenant" line o :: !bad
    | _ -> ()
  done;
  List.sort compare !bad

(* readers-observe-last-write: after draining, every readable shared
   page's remote bytes must equal the last-writer-wins image ([e.seg],
   maintained under the deterministic replay's total order).  Pages made
   unrepairable by an armed bit-flip, or homed on a crashed node with no
   live copy, are the integrity/fault oracles' business, not this one's. *)
let shared_divergence e =
  let unrepairable =
    List.concat_map Runtime.unrepairable_pages (Array.to_list e.runtimes)
  in
  let c =
    Resource_manager.compare_remote (rm0 e) ~read_local:(read_local e 0)
      ~keep:(fun vpage -> in_seg e vpage && not (List.mem vpage unrepairable))
  in
  c.Resource_manager.mismatches

let shared_owner e ~line = Directory.owner e.mw_dir ~line
let shared_handoffs e = Directory.handoffs e.mw_dir
let shared_invalidations e = Directory.invalidations e.mw_dir
let force_migration e = Migrator.force (migrator e) ~now:(now_ns e)
let tenant_cfgs e = e.tenants
let runtime e ~tenant = e.runtimes.(tenant)
let controller e = e.controller
let fast_node_count e = e.cfg.fast_nodes
let drain_failures e = e.drain_failures

let crash_node e ~id =
  (* The crash rides tenant 0's runtime (same as fault plans): fail-stop
     is rack-global through the shared controller, and tenant 0 runs the
     failover control exchange.  The other tenants' translations retarget
     lazily through the controller's promoted backing. *)
  if id >= 0 && id < node_count e then Runtime.crash_node e.runtimes.(0) ~id

(* Arm [clause] now on every tenant it reaches, each on its own clock:
   every tenant owns a NIC port for a flap to take down, and opens its
   own deferral window for a partition. *)
let inject e clause =
  Array.iteri
    (fun i rt -> if reaches i clause then Runtime.arm_fault rt clause)
    e.runtimes

let recovery_pending e =
  Recovery.pending e.recovery
  @ List.concat_map Runtime.recovery_pending (Array.to_list e.runtimes)

let recovery_idle e = recovery_pending e = []
let step_recovery e = step_recovery_at e ~now:(now_ns e)
let force_scrub e = Array.iter Runtime.force_scrub e.runtimes

let set_tenant_quota e ~tenant ~bytes =
  if tenant >= 0 && tenant < tenant_count e then
    Rack_controller.set_quota e.controller ~tenant:e.tenants.(tenant).name
      ~bytes

let tenant_used e ~tenant =
  if tenant >= 0 && tenant < tenant_count e then
    Rack_controller.tenant_used e.controller ~tenant:e.tenants.(tenant).name
  else 0

let run cfg tenants =
  let e = start cfg tenants in
  while step e > 0 do
    ()
  done;
  finish e
