open Kona_util
module Access = Kona_trace.Access
module Hierarchy = Kona_cachesim.Hierarchy
module Fmem = Kona_coherence.Fmem
module Page_table = Kona_vm.Page_table
module Tlb = Kona_vm.Tlb
module Nic = Kona_rdma.Nic
module Qp = Kona_rdma.Qp
module Hub = Kona_telemetry.Hub
module Registry = Kona_telemetry.Registry
module Snapshot = Kona_telemetry.Snapshot
module Tracer = Kona_telemetry.Tracer
module Cost_model = Kona.Cost_model
module Resource_manager = Kona.Resource_manager
module Rack_controller = Kona.Rack_controller
module Memory_node = Kona.Memory_node

type profile = {
  profile_name : string;
  remote_fetch_ns : int;
  eviction_extra_ns : int;
}

let kona_vm_profile cost rdma =
  {
    profile_name = "Kona-VM";
    remote_fetch_ns =
      Kona_rdma.Cost.batch_ns rdma ~sizes:[ Units.page_size ]
      + cost.Cost_model.minor_fault_ns + cost.Cost_model.userfault_extra_ns
      + cost.Cost_model.tlb_walk_ns;
    eviction_extra_ns = 2_000;
  }

let legoos_profile cost =
  {
    profile_name = "LegoOS";
    remote_fetch_ns = cost.Cost_model.remote_fault_legoos_ns;
    eviction_extra_ns = 4_000;
  }

let infiniswap_profile cost =
  {
    profile_name = "Infiniswap";
    remote_fetch_ns = cost.Cost_model.remote_fault_infiniswap_ns;
    eviction_extra_ns = cost.Cost_model.eviction_infiniswap_ns - 3_000;
  }

type config = {
  cost : Cost_model.t;
  rdma : Kona_rdma.Cost.t;
  cache_config : Hierarchy.config;
  cache_pages : int;
  write_protect : bool;
  page_bytes : int;
  sq_depth : int option;
  signal_interval : int;
  backoff : Backoff.config;
}

let default_config =
  {
    cost = Cost_model.default;
    rdma = Kona_rdma.Cost.default;
    cache_config = Hierarchy.default_config;
    cache_pages = 1024;
    write_protect = true;
    page_bytes = Units.page_size;
    sq_depth = None;
    signal_interval = 1;
    backoff = Backoff.default;
  }

type t = {
  config : config;
  profile : profile;
  app_clock : Clock.t;
  bg_clock : Clock.t;
  hierarchy : Hierarchy.t;
  page_cache : Fmem.t; (* same structure/policy as Kona's FMem *)
  pt : Page_table.t;
  tlb : Tlb.t;
  rm : Resource_manager.t;
  controller : Rack_controller.t;
  nic : Nic.t;
  evict_qp : Qp.t;
  registry : Registry.t; (* the hub's registry, or a private one *)
  tracer : Tracer.t option;
  fetch_latency : Histogram.t;
  read_local : addr:int -> len:int -> string;
  mutable accesses : int;
  mutable page_hits : int;
  mutable remote_faults : int;
  mutable wp_faults : int;
  mutable pages_evicted : int;
  mutable dirty_pages_written : int;
  mutable shootdowns : int;
}

(* Same namespace as {!Kona.Runtime.register_metrics} where the concepts
   coincide ([fetch.latency_ns], [fmem.hits]/[fmem.misses],
   [nic.wire_bytes], ...), so one pipeline compares the two systems; the
   fault machinery publishes under [vm.*]. *)
let register_metrics t reg =
  let c ?labels name f = Registry.counter_fn reg ?labels name f in
  let g ?labels name f = Registry.gauge_fn reg ?labels name f in
  c "runtime.accesses" (fun () -> t.accesses);
  g "clock.app_ns" (fun () -> Clock.now t.app_clock);
  g "clock.bg_ns" (fun () -> Clock.now t.bg_clock);
  Registry.histogram_ref reg "fetch.latency_ns" t.fetch_latency;
  c "fetch.pages" (fun () -> t.remote_faults);
  c "fetch.bytes" (fun () -> t.remote_faults * t.config.page_bytes);
  c "fmem.hits" (fun () -> t.page_hits);
  c "fmem.misses" (fun () -> t.remote_faults);
  g "fmem.resident" (fun () -> Fmem.resident t.page_cache);
  c "fmem.evictions" (fun () -> Fmem.evictions t.page_cache);
  c "vm.remote_faults" (fun () -> t.remote_faults);
  c "vm.wp_faults" (fun () -> t.wp_faults);
  c "vm.shootdowns" (fun () -> t.shootdowns);
  c "vm.tlb_misses" (fun () -> Tlb.misses t.tlb);
  c "evict.pages" (fun () -> t.pages_evicted);
  c "wb.pages" (fun () -> t.dirty_pages_written);
  c "wb.bytes" (fun () -> t.dirty_pages_written * t.config.page_bytes);
  List.iter
    (fun (lvl, cache) ->
      let labels = [ ("level", lvl) ] in
      c ~labels "cache.accesses" (fun () ->
          let s = Kona_cachesim.Cache.stats cache in
          s.Kona_cachesim.Cache.reads + s.Kona_cachesim.Cache.writes);
      c ~labels "cache.misses" (fun () ->
          let s = Kona_cachesim.Cache.stats cache in
          s.Kona_cachesim.Cache.read_misses + s.Kona_cachesim.Cache.write_misses))
    [
      ("l1", Hierarchy.l1 t.hierarchy);
      ("l2", Hierarchy.l2 t.hierarchy);
      ("llc", Hierarchy.llc t.hierarchy);
    ];
  let labels = [ ("qp", "evict") ] in
  c ~labels "qp.wire_bytes" (fun () -> Qp.wire_bytes t.evict_qp);
  c ~labels "qp.payload_bytes" (fun () -> Qp.payload_bytes t.evict_qp);
  c ~labels "qp.posts" (fun () -> Qp.posts t.evict_qp);
  c ~labels "qp.verbs" (fun () -> Qp.verbs t.evict_qp);
  c ~labels "qp.window_stalls" (fun () -> Qp.window_stalls t.evict_qp);
  c ~labels "qp.window_stall_ns" (fun () -> Qp.window_stall_ns t.evict_qp);
  g ~labels "qp.outstanding_peak" (fun () -> Qp.outstanding_peak t.evict_qp);
  c "nic.ops" (fun () -> Nic.ops t.nic);
  c "nic.busy_ns" (fun () -> Nic.busy_ns t.nic);
  c "nic.stall_ns" (fun () -> Nic.stall_ns t.nic);
  (* Evictions go out on the QP; fetched pages also cross the NIC, but the
     fault path folds their wire time into the profile latency, so their
     bytes are accounted from the fault count. *)
  c "nic.wire_bytes" (fun () ->
      Qp.wire_bytes t.evict_qp + (t.remote_faults * t.config.page_bytes));
  g "rm.slabs" (fun () -> List.length (Resource_manager.slabs t.rm));
  c "rm.controller_round_trips" (fun () ->
      Resource_manager.controller_round_trips t.rm)

let create ?(config = default_config) ?nic ?hub ~profile ~controller ~read_local () =
  if config.page_bytes < Units.page_size || config.page_bytes mod Units.page_size <> 0
  then invalid_arg "Vm_runtime: page_bytes must be a positive multiple of 4096";
  let app_clock = Clock.create () in
  let bg_clock = Clock.create () in
  let tracer = Option.map Hub.tracer hub in
  (match tracer with
  | Some tr ->
      Tracer.set_clock tr (fun () -> (Clock.now app_clock, Clock.now bg_clock))
  | None -> ());
  let nic = match nic with Some n -> n | None -> Kona_rdma.Nic.create () in
  let t =
    {
      config;
      profile;
      app_clock;
      bg_clock;
      hierarchy =
        Hierarchy.create ~config:config.cache_config
          ~on_fill:(fun ~addr:_ ~write:_ -> ())
          ();
      page_cache = Fmem.create ~pages:config.cache_pages ();
      pt = Page_table.create ();
      tlb = Tlb.create ();
      rm =
        Resource_manager.create
          ~rpc:
            (Kona_rdma.Rpc.create ~cost:config.rdma ~backoff:config.backoff
               ~clock:app_clock ~nic ())
          ~controller ();
      controller;
      nic;
      evict_qp =
        Qp.create ~cost:config.rdma ~nic ?sq_depth:config.sq_depth
          ~retry:(Qp.retry_of config.backoff)
          ~signal_interval:config.signal_interval ~clock:bg_clock ();
      registry =
        (match hub with Some h -> Hub.registry h | None -> Registry.create ());
      tracer;
      fetch_latency = Histogram.create ();
      read_local;
      accesses = 0;
      page_hits = 0;
      remote_faults = 0;
      wp_faults = 0;
      pages_evicted = 0;
      dirty_pages_written = 0;
      shootdowns = 0;
    }
  in
  register_metrics t t.registry;
  t

let charge_app t ns = Clock.advance t.app_clock ns
let charge_bg t ns = Clock.advance t.bg_clock ns

let page_bytes t = t.config.page_bytes

(* Write one whole dirty page back over RDMA (the page-granularity
   eviction path), on the background clock. *)
let writeback_page t ~vpage =
  match Resource_manager.translate t.rm ~vaddr:(vpage * page_bytes t) with
  | None -> failwith (Printf.sprintf "Vm_runtime: no backing for page %#x" vpage)
  | Some (node, raddr) ->
      let data = t.read_local ~addr:(vpage * page_bytes t) ~len:(page_bytes t) in
      let target = Rack_controller.node t.controller ~id:node in
      charge_bg t (Kona_rdma.Cost.memcpy_ns t.config.rdma ~bytes:(page_bytes t));
      charge_bg t t.profile.eviction_extra_ns;
      Qp.post t.evict_qp
        [
          Qp.wqe ~signaled:true
            ~deliver:(fun () -> Memory_node.write target ~addr:raddr ~data)
            Qp.Write ~len:(page_bytes t);
        ];
      t.dirty_pages_written <- t.dirty_pages_written + 1

let evict_victim t ~vpage =
  t.pages_evicted <- t.pages_evicted + 1;
  let bg_before = Clock.now t.bg_clock in
  let dirty =
    match Page_table.lookup t.pt ~page:vpage with
    | Some pte -> pte.Page_table.dirty || not t.config.write_protect
    | None -> false
  in
  if dirty then writeback_page t ~vpage;
  (* Unmapping requires invalidating the page's translation everywhere:
     this is the TLB shootdown the application pays for (§2.1). *)
  Page_table.unmap t.pt ~page:vpage;
  (match Page_table.lookup t.pt ~page:vpage with
  | Some pte -> pte.Page_table.dirty <- false
  | None -> ());
  Tlb.invalidate_page t.tlb ~page:vpage;
  t.shootdowns <- t.shootdowns + 1;
  charge_app t t.config.cost.Cost_model.tlb_invalidate_ns;
  ignore (Fmem.evict t.page_cache ~vpage : Fmem.victim option);
  match t.tracer with
  | Some tr ->
      Tracer.span tr "evict.page"
        ~dur_ns:(Clock.now t.bg_clock - bg_before)
        ~args:[ ("vpage", vpage); ("dirty", if dirty then 1 else 0) ]
  | None -> ()

let fetch_page t ~vpage =
  t.remote_faults <- t.remote_faults + 1;
  let app_before = Clock.now t.app_clock in
  (* The fault's latency floor is the profile's; bigger pages additionally
     pay their extra wire time relative to a 4KB transfer. *)
  charge_app t t.profile.remote_fetch_ns;
  if page_bytes t > Units.page_size then
    charge_app t
      (Kona_rdma.Cost.batch_ns t.config.rdma ~sizes:[ page_bytes t ]
      - Kona_rdma.Cost.batch_ns t.config.rdma ~sizes:[ Units.page_size ]);
  Resource_manager.ensure_backed t.rm ~addr:(vpage * page_bytes t)
    ~len:(page_bytes t);
  (* Pre-evict the set's LRU page if the set is full, so page-table state
     stays in sync with the page cache. *)
  (match Fmem.victim_candidate t.page_cache ~vpage with
  | Some victim -> evict_victim t ~vpage:victim
  | None -> ());
  ignore (Fmem.insert t.page_cache ~vpage : Fmem.victim option);
  let protection =
    if t.config.write_protect then Page_table.Read_only else Page_table.Read_write
  in
  Page_table.map t.pt ~page:vpage ~protection;
  let wait_ns = Clock.now t.app_clock - app_before in
  Histogram.add t.fetch_latency wait_ns;
  match t.tracer with
  | Some tr -> Tracer.span tr "fetch.page" ~dur_ns:wait_ns ~args:[ ("vpage", vpage) ]
  | None -> ()

let note_wp_fault t ~page =
  t.wp_faults <- t.wp_faults + 1;
  match t.tracer with
  | Some tr -> Tracer.instant tr "vm.wp_fault" ~args:[ ("vpage", page) ]
  | None -> ()

let page_access t ~page ~write =
  (match Tlb.access t.tlb ~page with
  | `Hit -> ()
  | `Miss -> charge_app t t.config.cost.Cost_model.tlb_walk_ns);
  match Page_table.fault_kind t.pt ~page ~write with
  | `None -> t.page_hits <- t.page_hits + 1
  | `Not_present -> (
      fetch_page t ~vpage:page;
      (* The triggering access retries: a write now takes the second,
         write-protection fault (§6.1: "Kona-VM incurs two page faults"). *)
      match Page_table.fault_kind t.pt ~page ~write with
      | `None -> ()
      | `Protection ->
          note_wp_fault t ~page;
          charge_app t t.config.cost.Cost_model.minor_fault_ns;
          Page_table.make_writable t.pt ~page;
          ignore (Page_table.fault_kind t.pt ~page ~write : [ `None | `Not_present | `Protection ])
      | `Not_present -> assert false)
  | `Protection ->
      t.page_hits <- t.page_hits + 1;
      note_wp_fault t ~page;
      charge_app t t.config.cost.Cost_model.minor_fault_ns;
      Page_table.make_writable t.pt ~page;
      ignore (Page_table.fault_kind t.pt ~page ~write : [ `None | `Not_present | `Protection ])

let charge_level t level =
  let c = t.config.cost in
  let ns =
    match level with
    | 1 -> c.Cost_model.l1_ns
    | 2 -> c.Cost_model.l1_ns +. c.Cost_model.l2_ns
    | 3 -> c.Cost_model.l1_ns +. c.Cost_model.l2_ns +. c.Cost_model.llc_ns
    | _ ->
        c.Cost_model.l1_ns +. c.Cost_model.l2_ns +. c.Cost_model.llc_ns
        +. c.Cost_model.cmem_ns
  in
  charge_app t (int_of_float ns)

let sink t event =
  t.accesses <- t.accesses + 1;
  let write = Access.is_write event in
  if page_bytes t = Units.page_size then
    Access.iter_pages event (fun page -> page_access t ~page ~write)
  else begin
    let first = event.Access.addr / page_bytes t in
    let last = (Access.end_addr event - 1) / page_bytes t in
    for page = first to last do
      page_access t ~page ~write
    done
  end;
  Access.iter_lines event (fun line ->
      let level = Hierarchy.access_line t.hierarchy ~addr:(line * Units.cache_line) ~write in
      charge_level t level)

let drain t =
  let resident = ref [] in
  Fmem.iter_resident t.page_cache (fun ~vpage ~dirty:_ -> resident := vpage :: !resident);
  List.iter (fun vpage -> evict_victim t ~vpage) !resident;
  Qp.wait_idle t.evict_qp

let app_ns t = Clock.now t.app_clock
let bg_ns t = Clock.now t.bg_clock
let elapsed_ns t = max (app_ns t) (bg_ns t)

(* A fixed view over the registry, under this runtime's older undotted
   names; names and order are a contract like {!Kona.Runtime.stats}'s. *)
let stats_view =
  [
    ("accesses", "runtime.accesses");
    ("remote_faults", "vm.remote_faults");
    ("wp_faults", "vm.wp_faults");
    ("pages_evicted", "evict.pages");
    ("dirty_pages_written", "wb.pages");
    ("shootdowns", "vm.shootdowns");
    ("tlb_misses", "vm.tlb_misses");
    ("evict_wire_bytes", "qp.wire_bytes{qp=evict}");
    ("resident_pages", "fmem.resident");
    ("page_hits", "fmem.hits");
  ]

let stats t =
  List.map
    (fun (name, metric) ->
      match Registry.read t.registry metric with
      | Some (Snapshot.Counter v | Snapshot.Gauge v) -> (name, v)
      | _ -> invalid_arg ("Vm_runtime: no count registered as " ^ metric))
    stats_view

let registry t = t.registry

let resource_manager t = t.rm
