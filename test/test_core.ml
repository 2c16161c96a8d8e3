(* Tests for the Kona core library: slabs, controller, resource manager,
   CL-log, the assembled runtime (including the end-to-end data-integrity
   invariant), KCacheSim and KTracker. *)

open Kona
module Access = Kona_trace.Access
module Bitmap = Kona_util.Bitmap
module Clock = Kona_util.Clock
module Units = Kona_util.Units
module Heap = Kona_workloads.Heap
module Workloads = Kona_workloads.Workloads
module Qp = Kona_rdma.Qp
module System = Kona_baselines.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Slab / controller / resource manager *)

let test_slab_translation () =
  let slab = { Slab.id = 0; node = 2; vaddr = 0x100000; remote_addr = 0x4000; size = 0x1000 } in
  check_bool "contains" true (Slab.contains slab ~addr:0x100fff);
  check_bool "excludes" false (Slab.contains slab ~addr:0x101000);
  check_int "translate" 0x4010 (Slab.remote_of_vaddr slab ~vaddr:0x100010);
  check_bool "outside raises" true
    (try
       ignore (Slab.remote_of_vaddr slab ~vaddr:0);
       false
     with Invalid_argument _ -> true)

let controller_with_nodes ?(slab_size = Units.kib 64) ?(nodes = 2) ?(capacity = Units.mib 1) () =
  let c = Rack_controller.create ~slab_size () in
  for i = 0 to nodes - 1 do
    Rack_controller.register_node c (Memory_node.create ~id:i ~capacity)
  done;
  c

let test_controller_round_robin () =
  let c = controller_with_nodes () in
  let s1 = Rack_controller.allocate_slab c ~vaddr:0 in
  let s2 = Rack_controller.allocate_slab c ~vaddr:65536 in
  let s3 = Rack_controller.allocate_slab c ~vaddr:131072 in
  check_int "node 0 first" 0 s1.Slab.node;
  check_int "node 1 next" 1 s2.Slab.node;
  check_int "wraps" 0 s3.Slab.node;
  check_int "slabs allocated" 3 (Rack_controller.slabs_allocated c)

let test_controller_skips_full_nodes () =
  let c = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c (Memory_node.create ~id:0 ~capacity:(Units.kib 64));
  Rack_controller.register_node c (Memory_node.create ~id:1 ~capacity:(Units.mib 1));
  ignore (Rack_controller.allocate_slab c ~vaddr:0) (* fills node 0 *);
  let s = Rack_controller.allocate_slab c ~vaddr:65536 in
  check_int "skips exhausted node" 1 s.Slab.node;
  let s = Rack_controller.allocate_slab c ~vaddr:131072 in
  check_int "keeps using node 1" 1 s.Slab.node

let test_controller_oom () =
  let c = controller_with_nodes ~nodes:1 ~capacity:(Units.kib 64) () in
  ignore (Rack_controller.allocate_slab c ~vaddr:0);
  check_bool "oom" true
    (try
       ignore (Rack_controller.allocate_slab c ~vaddr:65536);
       false
     with Out_of_memory -> true)

let test_controller_occupancy () =
  let slab = Units.kib 64 in
  let c = controller_with_nodes ~capacity:(Units.kib 256) () in
  check_int "node 0 starts free" (Units.kib 256) (Rack_controller.free_bytes c ~id:0);
  check_int "node 0 starts unused" 0 (Rack_controller.used_bytes c ~id:0);
  ignore (Rack_controller.allocate_slab c ~vaddr:0) (* node 0 *);
  ignore (Rack_controller.allocate_slab c ~vaddr:slab) (* node 1 *);
  ignore (Rack_controller.allocate_slab c ~vaddr:(2 * slab)) (* node 0 *);
  check_int "node 0 holds two slabs" (2 * slab) (Rack_controller.used_bytes c ~id:0);
  check_int "node 0 free shrank" (Units.kib 256 - (2 * slab))
    (Rack_controller.free_bytes c ~id:0);
  check_int "node 1 holds one slab" slab (Rack_controller.used_bytes c ~id:1);
  check_bool "unknown id raises" true
    (try
       ignore (Rack_controller.free_bytes c ~id:7);
       false
     with Invalid_argument _ -> true)

let test_controller_skips_crashed_nodes () =
  let c = controller_with_nodes () in
  Memory_node.crash (Rack_controller.node c ~id:0);
  let s = Rack_controller.allocate_slab c ~vaddr:0 in
  check_int "crashed node skipped" 1 s.Slab.node;
  let s = Rack_controller.allocate_slab c ~vaddr:65536 in
  check_int "still node 1" 1 s.Slab.node;
  Rack_controller.replace_node c ~id:0
    ~node:(Memory_node.create ~id:100 ~capacity:(Units.mib 1));
  let s = Rack_controller.allocate_slab c ~vaddr:131072 in
  check_int "round robin resumes on the replacement" 0 s.Slab.node;
  check_int "replacement charged one slab" (Units.kib 64)
    (Rack_controller.used_bytes c ~id:0)

let test_controller_quota () =
  let slab = Units.kib 64 in
  let c = controller_with_nodes () in
  Rack_controller.set_quota c ~tenant:"a" ~bytes:(2 * slab);
  check_bool "cap recorded" true
    (Rack_controller.quota c ~tenant:"a" = Some (2 * slab));
  ignore (Rack_controller.allocate_slab ~tenant:"a" c ~vaddr:0);
  ignore (Rack_controller.allocate_slab ~tenant:"a" c ~vaddr:slab);
  check_int "charged" (2 * slab) (Rack_controller.tenant_used c ~tenant:"a");
  (match Rack_controller.allocate_slab ~tenant:"a" c ~vaddr:(2 * slab) with
  | _ -> Alcotest.fail "allocation past the cap must be rejected"
  | exception Rack_controller.Quota_exceeded { tenant; quota; used; requested } ->
      Alcotest.(check string) "names the tenant" "a" tenant;
      check_int "cap" (2 * slab) quota;
      check_int "used at rejection" (2 * slab) used;
      check_int "requested" slab requested);
  check_int "nothing charged on rejection" (2 * slab)
    (Rack_controller.tenant_used c ~tenant:"a");
  (* Other tenants — and unmetered allocations — are unaffected. *)
  ignore (Rack_controller.allocate_slab ~tenant:"b" c ~vaddr:(3 * slab));
  ignore (Rack_controller.allocate_slab c ~vaddr:(4 * slab));
  check_int "uncapped tenant still admitted" slab
    (Rack_controller.tenant_used c ~tenant:"b");
  check_bool "negative cap raises" true
    (try
       Rack_controller.set_quota c ~tenant:"a" ~bytes:(-1);
       false
     with Invalid_argument _ -> true)

let test_resource_manager_batching () =
  let c = controller_with_nodes () in
  let rm = Resource_manager.create ~batch:4 ~controller:c () in
  Resource_manager.ensure_backed rm ~addr:0 ~len:8;
  check_int "one round trip provisions a batch" 1
    (Resource_manager.controller_round_trips rm);
  check_int "batch slabs" 4 (List.length (Resource_manager.slabs rm));
  (* Addresses within the batch need no further round trips. *)
  Resource_manager.ensure_backed rm ~addr:(3 * Units.kib 64) ~len:8;
  check_int "still one round trip" 1 (Resource_manager.controller_round_trips rm);
  match Resource_manager.translate rm ~vaddr:100 with
  | Some (_node, raddr) -> check_int "offset preserved" 100 (raddr mod Units.kib 64)
  | None -> Alcotest.fail "backed address must translate"

let test_resource_manager_spanning () =
  let c = controller_with_nodes () in
  let rm = Resource_manager.create ~batch:1 ~controller:c () in
  (* A range spanning two slabs backs both. *)
  Resource_manager.ensure_backed rm ~addr:(Units.kib 64 - 8) ~len:16;
  check_bool "first slab" true (Resource_manager.translate rm ~vaddr:0 <> None);
  check_bool "second slab" true (Resource_manager.translate rm ~vaddr:(Units.kib 64) <> None)

(* The remote-memory oracle over two slabs, one on each node. *)
let test_resource_manager_compare_remote () =
  let c = controller_with_nodes () in
  let rm = Resource_manager.create ~batch:2 ~controller:c () in
  Resource_manager.ensure_backed rm ~addr:0 ~len:8;
  let page = Units.page_size in
  let pages = 2 * Units.kib 64 / page in
  (* untouched remote pages read as zeros, like this local image *)
  let local = Bytes.make (pages * page) '\000' in
  let compare ?(keep = fun _ -> true) () =
    let r =
      Resource_manager.compare_remote rm ~keep ~read_local:(fun ~addr ~len ->
          Bytes.sub_string local addr len)
    in
    Resource_manager.(r.checked, r.mismatches, r.lost)
  in
  let check_result what expected actual =
    Alcotest.(check (triple int int int)) what expected actual
  in
  check_result "all equal" (pages, 0, 0) (compare ());
  (match Resource_manager.translate rm ~vaddr:(3 * page) with
  | Some (node, raddr) ->
      Memory_node.write (Rack_controller.node c ~id:node) ~addr:(raddr + 5)
        ~data:"x"
  | None -> Alcotest.fail "page 3 must be backed");
  check_result "planted remote byte" (pages, 1, 0) (compare ());
  check_result "rejected page skipped" (pages - 1, 0, 0)
    (compare ~keep:(fun vpage -> vpage <> 3) ());
  Memory_node.crash (Rack_controller.node c ~id:1);
  check_result "a crashed home is lost, not a mismatch" (pages, 1, pages / 2)
    (compare ())

(* ------------------------------------------------------------------ *)
(* Memory node + CL log *)

let test_memory_node_log_receiver () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 64) in
  let line = String.make 64 'a' in
  ignore
    (Memory_node.receive_log node
       [ Memory_node.entry ~addr:128 ~data:line; Memory_node.entry ~addr:4096 ~data:line ]);
  Alcotest.(check string) "scattered" line (Memory_node.peek node ~addr:128 ~len:64);
  check_int "lines received" 2 (Memory_node.lines_received node);
  check_int "logs received" 1 (Memory_node.logs_received node)

(* A CL log ships to the logical node ids of a rack controller: a
   standalone log registers its stores on a fresh one. *)
let controller_of nodes =
  let controller = Rack_controller.create () in
  List.iter (Rack_controller.register_node controller) nodes;
  controller

let test_cl_log_roundtrip () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 64) in
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  let log = Cl_log.create ~capacity:8 ~qp ~cost:Kona_rdma.Cost.default
      ~controller:(controller_of [ node ]) () in
  let line c = String.make 64 c in
  Cl_log.append_run log ~node:0 ~raddr:0 ~data:(line 'x');
  Cl_log.append_run log ~node:0 ~raddr:64 ~data:(line 'y');
  check_int "staged, not yet shipped" 0 (Memory_node.lines_received node);
  Cl_log.flush log;
  check_int "both delivered" 2 (Memory_node.lines_received node);
  Alcotest.(check string) "content x" (line 'x') (Memory_node.peek node ~addr:0 ~len:64);
  Alcotest.(check string) "content y" (line 'y') (Memory_node.peek node ~addr:64 ~len:64);
  check_int "lines logged" 2 (Cl_log.lines_logged log);
  check_bool "time charged" true (Clock.now clock > 0);
  let phases = List.map fst (Cl_log.breakdown_ns log) in
  Alcotest.(check (list string)) "phases" [ "bitmap"; "copy"; "rdma"; "ack" ] phases

let test_cl_log_autoflush () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 64) in
  let qp = Qp.create ~clock:(Clock.create ()) () in
  let log = Cl_log.create ~capacity:2 ~qp ~cost:Kona_rdma.Cost.default
      ~controller:(controller_of [ node ]) () in
  let line = String.make 64 'z' in
  Cl_log.append_run log ~node:0 ~raddr:0 ~data:line;
  Cl_log.append_run log ~node:0 ~raddr:64 ~data:line;
  (* The auto-flush is asynchronous: the write is posted but its bytes only
     land at the memory node when the clock reaches its completion time. *)
  check_int "autoflush posted at capacity" 1 (Cl_log.flushes log);
  check_int "bytes still in flight" 0 (Memory_node.lines_received node);
  Cl_log.flush log;
  check_int "visible after the fence" 2 (Memory_node.lines_received node);
  check_bool "short line rejected" true
    (try
       Cl_log.append_run log ~node:0 ~raddr:0 ~data:"short";
       false
     with Invalid_argument _ -> true);
  (* A multi-line run counts as its number of lines. *)
  Cl_log.append_run log ~node:0 ~raddr:128 ~data:(String.make 256 'r');
  check_int "run of 4 lines autoflushes" 2 (Cl_log.flushes log);
  Cl_log.flush log;
  check_int "all six lines delivered" 6 (Memory_node.lines_received node);
  Alcotest.(check string) "run content intact" (String.make 256 'r')
    (Memory_node.peek node ~addr:128 ~len:256)

let test_cl_log_empty_flush_and_split () =
  let n0 = Memory_node.create ~id:0 ~capacity:(Units.kib 64) in
  let n1 = Memory_node.create ~id:1 ~capacity:(Units.kib 64) in
  let qp = Qp.create ~clock:(Clock.create ()) () in
  let log =
    Cl_log.create ~capacity:64 ~qp ~cost:Kona_rdma.Cost.default
      ~controller:(controller_of [ n0; n1 ]) ()
  in
  Cl_log.flush log;
  check_int "empty flush ships nothing" 0 (Cl_log.flushes log);
  let line = String.make 64 'm' in
  Cl_log.append_run log ~node:0 ~raddr:0 ~data:line;
  Cl_log.append_run log ~node:1 ~raddr:64 ~data:line;
  Cl_log.append_run log ~node:0 ~raddr:128 ~data:line;
  Cl_log.flush log;
  check_int "per-node logs" 2 (Cl_log.flushes log);
  check_int "node 0 got 2 lines" 2 (Memory_node.lines_received n0);
  check_int "node 1 got 1 line" 1 (Memory_node.lines_received n1);
  (* Both node batches went out under one coalesced doorbell. *)
  check_int "one doorbell for the whole fence" 1 (Cl_log.doorbell_batches log);
  check_int "two WQEs under it" 2 (Cl_log.doorbell_wqes log)

let test_cl_log_empty_fence_costs_nothing () =
  (* Regression: the fence used to gate the final ack on the lifetime flush
     counter, so every fence after the first ever flush paid the ack
     round-trip even with nothing staged. *)
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 64) in
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  let log = Cl_log.create ~capacity:8 ~qp ~cost:Kona_rdma.Cost.default
      ~controller:(controller_of [ node ]) () in
  Cl_log.flush log;
  check_int "fence before any traffic is free" 0 (Clock.now clock);
  Cl_log.append_run log ~node:0 ~raddr:0 ~data:(String.make 64 'a');
  Cl_log.flush log;
  let after_real_fence = Clock.now clock in
  check_bool "real fence costs time" true (after_real_fence > 0);
  Cl_log.flush log;
  check_int "empty fence after a flush advances the clock by zero"
    after_real_fence (Clock.now clock);
  let ack = List.assoc "ack" (Cl_log.breakdown_ns log) in
  check_int "exactly one ack charged"
    (int_of_float Kona_rdma.Cost.default.Kona_rdma.Cost.ack_ns) ack

let prop_cl_log_breakdown_sums_to_clock =
  (* Phase attribution is a partition: every nanosecond the log charges to
     its clock lands in exactly one of bitmap/copy/rdma/ack, so on a
     standalone log (nothing else touching the clock) the phases sum to the
     clock exactly — the double-charge of wire serialization would break
     this. *)
  QCheck.Test.make ~name:"cl_log breakdown partitions the clock" ~count:50
    QCheck.(
      pair (int_range 1 16)
        (list_of_size Gen.(1 -- 60) (pair (int_bound 199) (int_range 1 4))))
    (fun (capacity, runs) ->
      let node = Memory_node.create ~id:0 ~capacity:(Units.mib 1) in
      let clock = Clock.create () in
      let qp = Qp.create ~clock () in
      let log =
        Cl_log.create ~capacity ~qp ~cost:Kona_rdma.Cost.default
          ~controller:(controller_of [ node ]) ()
      in
      List.iteri
        (fun i (slot, lines) ->
          Cl_log.note_bitmap_scan log ~lines:Units.lines_per_page;
          Cl_log.append_run log ~node:0 ~raddr:(slot * 256)
            ~data:(String.make (lines * 64) (Char.chr (Char.code 'a' + (i mod 26))));
          if i mod 7 = 0 then Cl_log.flush log)
        runs;
      Cl_log.flush log;
      Cl_log.flush log;
      let total =
        List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Cl_log.breakdown_ns log)
      in
      total = Clock.now clock)

let test_dirty_tracker_orphan_path () =
  (* A writeback for a page that is not FMem-resident (the race of §4.4)
     must be written through immediately, not lost. *)
  let node = Memory_node.create ~id:0 ~capacity:(Units.mib 1) in
  let controller = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node controller node;
  let rm = Resource_manager.create ~controller () in
  Resource_manager.ensure_backed rm ~addr:0 ~len:(Units.kib 64);
  let qp = Qp.create ~clock:(Clock.create ()) () in
  let log = Cl_log.create ~qp ~cost:Kona_rdma.Cost.default ~controller () in
  let evictor =
    Eviction_handler.create ~log ~rm
      ~read_local:(fun ~addr:_ ~len -> String.make len 'o')
      ~snoop:(fun ~page:_ -> [])
      ()
  in
  let fmem = Kona_coherence.Fmem.create ~pages:4 () in
  let tracker =
    Dirty_tracker.create ~fmem
      ~on_orphan:(fun ~line_addr -> Eviction_handler.write_line_through evictor ~line_addr)
      ()
  in
  (* page 3 is not resident in fmem: this writeback is an orphan *)
  Dirty_tracker.on_writeback tracker ~addr:(3 * Units.page_size);
  check_int "orphan counted" 1 (Dirty_tracker.orphans tracker);
  check_int "orphan shipped immediately" 1 (Memory_node.lines_received node);
  Alcotest.(check string) "orphan data landed" (String.make 64 'o')
    (Memory_node.peek node ~addr:(3 * Units.page_size) ~len:64)

let test_memory_node_validation () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 8) in
  let a = Memory_node.reserve node ~size:100 in
  check_int "reservation page-aligned" 0 (a mod Units.page_size);
  check_int "used rounded up" Units.page_size (Memory_node.used node);
  ignore (Memory_node.reserve node ~size:Units.page_size);
  check_bool "oom" true
    (try
       ignore (Memory_node.reserve node ~size:1);
       false
     with Out_of_memory -> true);
  check_bool "oob write rejected" true
    (try
       Memory_node.write node ~addr:(Units.kib 8) ~data:"x";
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Runtime: end-to-end *)

(* Memory nodes of 8 MiB behind 256 KiB slabs. *)
let fabric ?(capacity = Units.mib 8) nodes =
  controller_with_nodes ~slab_size:(Units.kib 256) ~nodes ~capacity ()

let make_runtime ?(fmem_pages = 64) ?(capacity = Units.mib 4) () =
  let config = { Runtime.default_config with fmem_pages } in
  System.kona ~config ~controller:(fabric 2) ~heap_capacity:capacity ()

let check_integrity runtime heap =
  (* After drain, every backed page within the arena matches the heap. *)
  let c = System.check heap (Runtime.resource_manager runtime) in
  check_bool "some pages backed" true (c.System.checked > 0);
  check_int "remote memory identical to heap" 0 c.System.mismatches;
  check_int "no page lost" 0 c.System.lost

let test_runtime_basic_flow () =
  let runtime, heap = make_runtime () in
  let a = Heap.alloc heap (Units.kib 8) in
  Heap.write_u64 heap a 42;
  Heap.write_u64 heap (a + 4096) 43;
  check_int "reads back through runtime" 42 (Heap.read_u64 heap a);
  Runtime.drain runtime;
  check_integrity runtime heap;
  let stats = Runtime.stats runtime in
  check_bool "fetched pages" true (List.assoc "fetch.pages" stats > 0);
  check_bool "tracked or evicted lines" true (List.assoc "log.lines" stats > 0)

let test_runtime_integrity_under_pressure () =
  (* Tiny FMem (16 pages) forces heavy eviction; data must survive. *)
  let runtime, heap = make_runtime ~fmem_pages:16 () in
  let rng = Kona_util.Rng.create ~seed:7 in
  let base = Heap.alloc heap (Units.kib 512) in
  for _ = 1 to 20_000 do
    let offset = Kona_util.Rng.int rng (Units.kib 512 - 8) in
    Heap.write_u64 heap (base + offset) (Kona_util.Rng.int rng 1_000_000)
  done;
  Runtime.drain runtime;
  check_integrity runtime heap;
  let stats = Runtime.stats runtime in
  check_bool "evictions happened" true (List.assoc "evict.pages" stats > 50)

let test_runtime_workload_integrity () =
  (* Full workload (Redis-Rand smoke) under eviction pressure. *)
  let spec = Workloads.redis_rand in
  let config = { Runtime.default_config with fmem_pages = 128 } in
  let runtime, heap =
    System.kona ~config
      ~controller:(fabric ~capacity:(Units.mib 16) 1)
      ~heap_capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
      ()
  in
  spec.Workloads.run Workloads.Smoke ~heap ~seed:3;
  Runtime.drain runtime;
  check_integrity runtime heap;
  (* Cache-line eviction must ship far fewer bytes than page-grain would:
     evicted lines vs evicted pages * 64 lines. *)
  let stats = Runtime.stats runtime in
  let lines = List.assoc "evict.lines" stats in
  let pages = List.assoc "evict.pages" stats in
  check_bool "line granularity saves traffic" true (lines < pages * Units.lines_per_page)

let test_runtime_clean_pages_silent () =
  let runtime, heap = make_runtime ~fmem_pages:16 () in
  let base = Heap.alloc heap (Units.kib 512) in
  (* Touch many pages read-only; they must evict silently. *)
  for p = 0 to 127 do
    ignore (Heap.read_u64 heap (base + (p * Units.page_size)))
  done;
  Runtime.drain runtime;
  let stats = Runtime.stats runtime in
  check_bool "clean pages seen" true (List.assoc "evict.clean_pages" stats > 0);
  check_int "nothing written over the wire for reads" 0 (List.assoc "log.lines" stats)

let test_runtime_clocks_advance () =
  let runtime, heap = make_runtime () in
  let a = Heap.alloc heap 4096 in
  Heap.write_u64 heap a 1;
  check_bool "app clock advanced" true (Runtime.app_ns runtime > 0);
  Runtime.drain runtime;
  check_bool "bg clock advanced on eviction" true (Runtime.bg_ns runtime > 0);
  check_bool "elapsed = max" true
    (Runtime.elapsed_ns runtime = max (Runtime.app_ns runtime) (Runtime.bg_ns runtime))

let prop_runtime_integrity_random_ops =
  (* Any interleaving of reads/writes over a small region, driven through
     the full runtime with a tiny cache, drains to byte-identical remote
     memory. *)
  QCheck.Test.make ~name:"runtime integrity under random op sequences" ~count:25
    QCheck.(list_of_size Gen.(20 -- 200) (pair (int_bound (Units.kib 128 - 9)) bool))
    (fun ops ->
      let runtime, heap = make_runtime ~fmem_pages:8 () in
      let base = Heap.alloc heap (Units.kib 128) in
      List.iteri
        (fun i (off, write) ->
          if write then Heap.write_u64 heap (base + off) i
          else ignore (Heap.read_u64 heap (base + off)))
        ops;
      Runtime.drain runtime;
      let c = System.check heap (Runtime.resource_manager runtime) in
      c.System.mismatches = 0 && c.System.lost = 0)

let test_drain_invariant_with_windowed_qp () =
  (* The end-to-end integrity invariant must be insensitive to the timing
     knobs: windowed (sq_depth 1 and 4) and selectively signaled eviction
     QPs reorder nothing, only reshape when time passes. *)
  List.iter
    (fun sq_depth ->
      let config =
        { Runtime.default_config with fmem_pages = 16; sq_depth; signal_interval = 4 }
      in
      let runtime, heap =
        System.kona ~config ~controller:(fabric 2) ~heap_capacity:(Units.mib 4) ()
      in
      let rng = Kona_util.Rng.create ~seed:13 in
      let base = Heap.alloc heap (Units.kib 256) in
      for _ = 1 to 10_000 do
        Heap.write_u64 heap
          (base + Kona_util.Rng.int rng (Units.kib 256 - 8))
          (Kona_util.Rng.int rng 1_000_000)
      done;
      Runtime.drain runtime;
      check_integrity runtime heap;
      match sq_depth with
      | Some 1 ->
          check_bool "depth-1 window stalled the evictor" true
            (List.assoc "evict.window_stalls" (Runtime.stats runtime) > 0)
      | _ -> ())
    [ Some 1; Some 4; None ]

let test_runtime_breakdown_matches_bg_clock () =
  (* kv-uniform (Redis-Rand): with prefetch off, only the CL log charges
     the background clock, so the Fig. 11c phases must add up to it —
     within 1% to allow rounding, in practice exactly. *)
  let spec = Workloads.find "kv-uniform" in
  let config = { Runtime.default_config with fmem_pages = 128 } in
  let runtime, heap =
    System.kona ~config
      ~controller:(fabric ~capacity:(Units.mib 16) 1)
      ~heap_capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
      ()
  in
  spec.Workloads.run Workloads.Smoke ~heap ~seed:3;
  Runtime.drain runtime;
  let breakdown = Cl_log.breakdown_ns (Runtime.cl_log runtime) in
  let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 breakdown in
  let bg = Runtime.bg_ns runtime in
  check_bool "bg clock saw eviction work" true (bg > 0);
  check_bool "phases sum to the bg clock within 1%" true
    (abs (total - bg) * 100 <= bg)

let test_runtime_multi_node_distribution () =
  (* Small slabs across two nodes: eviction logs must split per node and
     both nodes must receive their share. *)
  let controller = controller_with_nodes ~capacity:(Units.mib 8) () in
  let config = { Runtime.default_config with fmem_pages = 16 } in
  let runtime, heap =
    System.kona ~config ~controller ~heap_capacity:(Units.mib 4) ()
  in
  let base = Heap.alloc heap (Units.mib 1) in
  for p = 0 to (Units.mib 1 / Units.page_size) - 1 do
    Heap.write_u64 heap (base + (p * Units.page_size)) p
  done;
  Runtime.drain runtime;
  List.iter
    (fun id ->
      check_bool
        (Printf.sprintf "node %d received lines" id)
        true
        (Memory_node.lines_received (Rack_controller.node controller ~id) > 0))
    [ 0; 1 ];
  check_integrity runtime heap

(* ------------------------------------------------------------------ *)
(* Eviction replication: mirrors *)

let test_replication_mirrors_identical () =
  let controller = fabric 2 in
  let config = { Runtime.default_config with fmem_pages = 16; replicas = 2 } in
  let runtime, heap =
    System.kona ~config ~controller ~heap_capacity:(Units.mib 4) ()
  in
  let base = Heap.alloc heap (Units.kib 256) in
  let rng = Kona_util.Rng.create ~seed:11 in
  for _ = 1 to 5_000 do
    Heap.write_u64 heap (base + (Kona_util.Rng.int rng (Units.kib 256 - 8))) 7
  done;
  Runtime.drain runtime;
  check_integrity runtime heap;
  check_int "degree" 2 (Rack_controller.replicas controller);
  check_int "no divergent mirrors" 0 (Rack_controller.divergent_mirrors controller);
  let lines = List.assoc "log.lines" (Runtime.stats runtime) in
  check_int "each line on both mirrors" (2 * lines)
    (Rack_controller.lines_replicated controller)

let test_replication_targets () =
  let controller = Rack_controller.create () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:3 ~capacity:(Units.mib 1));
  Rack_controller.replicate controller ~degree:2;
  check_int "two mirrors for node 3" 2
    (List.length (Rack_controller.mirrors controller ~id:3));
  check_int "no mirrors for unknown node" 0
    (List.length (Rack_controller.mirrors controller ~id:9));
  let before = Rack_controller.mirrors controller ~id:3 in
  Rack_controller.replicate controller ~degree:2;
  check_bool "the same degree again mints nothing" true
    (Rack_controller.mirrors controller ~id:3 == before);
  check_bool "a different degree is refused" true
    (match Rack_controller.replicate controller ~degree:1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Rack_controller.register_node controller
    (Memory_node.create ~id:4 ~capacity:(Units.mib 1));
  check_int "a node registered later gets its mirrors" 2
    (List.length (Rack_controller.mirrors controller ~id:4))

(* ------------------------------------------------------------------ *)
(* Failure injection: outages and MCEs *)

let test_outage_delays_traffic () =
  let nic = Kona_rdma.Nic.create () in
  Kona_rdma.Nic.inject_outage nic ~at:0 ~duration:1_000_000;
  let clock = Clock.create () in
  let qp = Qp.create ~nic ~clock () in
  Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:64 ];
  Qp.wait_idle qp;
  check_bool "completion after outage lifts" true (Clock.now clock > 1_000_000)

let make_runtime_with_nic ?(config = Runtime.default_config) nic =
  System.kona ~config ~nic ~controller:(fabric 1) ~heap_capacity:(Units.mib 4) ()

let test_mce_on_outage () =
  let nic = Kona_rdma.Nic.create () in
  (* Land the outage mid-run, on the demand-fetch path (the first microsecond
     is control-path slab allocation). *)
  Kona_rdma.Nic.inject_outage nic ~at:(Units.us 50) ~duration:(Units.ms 2);
  let config =
    { Runtime.default_config with fmem_pages = 16; mce_threshold_ns = Some (Units.us 100) }
  in
  let runtime, heap = make_runtime_with_nic ~config nic in
  let base = Heap.alloc heap (Units.kib 128) in
  for p = 0 to 31 do
    Heap.write_u64 heap (base + (p * Units.page_size)) p
  done;
  Runtime.drain runtime;
  let stats = Runtime.stats runtime in
  check_bool "mce raised during outage" true (List.assoc "mce.raised" stats >= 1);
  check_bool "but not on every fetch" true
    (List.assoc "mce.raised" stats < List.assoc "fetch.pages" stats);
  (* The application recovered and data is intact. *)
  check_integrity runtime heap

let test_no_mce_without_outage () =
  let nic = Kona_rdma.Nic.create () in
  let config =
    { Runtime.default_config with fmem_pages = 16; mce_threshold_ns = Some (Units.us 100) }
  in
  let runtime, heap = make_runtime_with_nic ~config nic in
  let base = Heap.alloc heap (Units.kib 64) in
  for p = 0 to 15 do
    Heap.write_u64 heap (base + (p * Units.page_size)) p
  done;
  check_int "no mce on healthy network" 0
    (List.assoc "mce.raised" (Runtime.stats runtime))

(* ------------------------------------------------------------------ *)
(* Prefetcher *)

let test_prefetcher_stream_detection () =
  let requested = ref [] in
  let p = Prefetcher.create ~on_prefetch:(fun ~vpage -> requested := vpage :: !requested) in
  Prefetcher.observe_miss p ~vpage:10;
  Alcotest.(check (list int)) "first miss registers a stream" [] !requested;
  Prefetcher.observe_miss p ~vpage:11;
  Alcotest.(check (list int)) "second sequential miss prefetches ahead" [ 13; 12 ] !requested;
  Prefetcher.observe_miss p ~vpage:12;
  (* 13 already requested: only 14 is new. *)
  Alcotest.(check (list int)) "no duplicate requests" [ 14; 13; 12 ] !requested;
  check_int "issued" 3 (Prefetcher.issued p)

let test_prefetcher_random_misses_quiet () =
  let requested = ref 0 in
  let p = Prefetcher.create ~on_prefetch:(fun ~vpage:_ -> incr requested) in
  let rng = Kona_util.Rng.create ~seed:5 in
  for _ = 1 to 200 do
    Prefetcher.observe_miss p ~vpage:(Kona_util.Rng.int rng 1_000_000)
  done;
  check_bool "random stream triggers (almost) nothing" true (!requested < 10)

let test_prefetcher_blind_to_strides () =
  (* A stride-3 scan never continues a stream, so nothing is prefetched. *)
  let quiet = ref 0 in
  let p = Prefetcher.create ~on_prefetch:(fun ~vpage:_ -> incr quiet) in
  for i = 0 to 11 do
    Prefetcher.observe_miss p ~vpage:(100 + (3 * i))
  done;
  check_int "next-page blind to strides" 0 !quiet

let test_ktracker_pml_model () =
  let heap = Heap.create ~capacity:(Units.mib 1) ~sink:Access.Tap.ignore () in
  let tracker = Ktracker.create ~heap () in
  Heap.set_sink heap (Ktracker.sink tracker);
  let a = Heap.alloc heap (Units.mib 0 + Units.kib 512) in
  (* Dirty 100 pages: well under one PML buffer. *)
  for page = 0 to 99 do
    Heap.write_u64 heap (a + (page * Units.page_size)) page
  done;
  Ktracker.close_window tracker ~window:0;
  let cost = Cost_model.default in
  check_int "one PML drain" cost.Cost_model.pml_drain_ns
    (Ktracker.pml_overhead_ns ~cost tracker);
  check_bool "PML far cheaper than write protection" true
    (10 * Ktracker.pml_overhead_ns ~cost tracker < Ktracker.wp_overhead_ns ~cost tracker)

let test_runtime_prefetch_integrity () =
  let nic = Kona_rdma.Nic.create () in
  let config = { Runtime.default_config with fmem_pages = 32; prefetch = true } in
  let runtime, heap = make_runtime_with_nic ~config nic in
  let base = Heap.alloc heap (Units.kib 512) in
  (* Sequential write sweep: prefetches fire, evictions happen, data must
     survive. *)
  for p = 0 to 127 do
    Heap.write_u64 heap (base + (p * Units.page_size)) (p * 3)
  done;
  Runtime.drain runtime;
  check_integrity runtime heap;
  let stats = Runtime.stats runtime in
  check_bool "prefetches issued" true (List.assoc "prefetch.issued" stats > 10);
  check_bool "some useful" true (List.assoc "prefetch.useful" stats > 0)

(* ------------------------------------------------------------------ *)
(* KCacheSim *)

let test_kcachesim_amat_ordering () =
  let counts =
    Kcachesim.simulate ~spec:Workloads.redis_rand ~scale:Workloads.Smoke ~seed:11
      ~cache_frac:0.25 ()
  in
  let cost = Cost_model.default in
  let kona = Kcachesim.amat_ns ~cost ~profile:(Cost_model.kona cost) counts in
  let kona_main = Kcachesim.amat_ns ~cost ~profile:(Cost_model.kona_main cost) counts in
  let legoos = Kcachesim.amat_ns ~cost ~profile:(Cost_model.legoos cost) counts in
  let infiniswap = Kcachesim.amat_ns ~cost ~profile:(Cost_model.infiniswap cost) counts in
  check_bool "counts conserve accesses" true
    (counts.Kcachesim.l1_hits + counts.Kcachesim.l2_hits + counts.Kcachesim.llc_hits
     + counts.Kcachesim.dram_hits + counts.Kcachesim.remote_fetches
    = counts.Kcachesim.line_accesses);
  check_bool "infiniswap worst" true (infiniswap > legoos);
  check_bool "legoos worse than kona" true (legoos > kona);
  check_bool "kona-main best" true (kona > kona_main)

(* CPU caches small enough that the DRAM-cache stage sees real traffic at
   Smoke scale (at Full scale the footprint dwarfs the LLC naturally). *)
let small_cpu_caches =
  {
    Kona_cachesim.Hierarchy.l1 = { Kona_cachesim.Hierarchy.size = Units.kib 4; assoc = 2 };
    l2 = { Kona_cachesim.Hierarchy.size = Units.kib 8; assoc = 2 };
    llc = { Kona_cachesim.Hierarchy.size = Units.kib 16; assoc = 4 };
  }

let test_kcachesim_cache_size_effect () =
  let at frac =
    Kcachesim.simulate ~cache_config:small_cpu_caches ~spec:Workloads.redis_rand ~scale:Workloads.Smoke
      ~seed:11 ~cache_frac:frac ()
  in
  let small = at 0.1 and big = at 1.0 in
  check_bool "bigger cache, fewer remote fetches" true
    (big.Kcachesim.remote_fetches < small.Kcachesim.remote_fetches);
  let cost = Cost_model.default in
  let profile = Cost_model.legoos cost in
  check_bool "bigger cache, lower AMAT" true
    (Kcachesim.amat_ns ~cost ~profile big < Kcachesim.amat_ns ~cost ~profile small)

let test_kcachesim_block_size_tradeoff () =
  (* Fig. 8d's mechanism: at a fixed cache size, tiny blocks miss spatial
     locality (more remote fetches); block size can't exceed the benefit. *)
  let at block =
    Kcachesim.simulate ~cache_config:small_cpu_caches ~block ~spec:Workloads.redis_rand
      ~scale:Workloads.Smoke ~seed:11 ~cache_frac:0.5 ()
  in
  let tiny = at 64 and page = at 4096 in
  check_bool "64B blocks fetch far more often" true
    (tiny.Kcachesim.remote_fetches > 2 * page.Kcachesim.remote_fetches);
  check_bool "bad block size rejected" true
    (try
       ignore (at 100);
       false
     with Invalid_argument _ -> true)

(* Every count of [simulate] at smoke scale, seed 11, under the default
   and the small CPU caches.  The DRAM-cache stage is the one 4 KiB-block
   [Cache] outside the tests, and its set count (1, 3, 5, 10 or 19 here)
   is not a power of two; these pin its LRU and the hierarchy's. *)
let test_kcachesim_pinned_counts () =
  let rand = Workloads.redis_rand and coloring = Workloads.graph_coloring in
  let caches = [ ("default", Kona_cachesim.Hierarchy.default_config); ("small", small_cpu_caches) ] in
  let pins =
    [
      (rand, "default", 0.05, (104537, 61464, 17355, 20956, 4687, 75, 304768, 16384));
      (rand, "default", 0.25, (104537, 61464, 17355, 20956, 4687, 75, 304768, 81920));
      (rand, "default", 1.0, (104537, 61464, 17355, 20956, 4687, 75, 304768, 311296));
      (coloring, "default", 0.05, (17401, 14540, 1735, 0, 1088, 38, 148864, 16384));
      (coloring, "default", 0.25, (17401, 14540, 1735, 0, 1089, 37, 148864, 49152));
      (coloring, "default", 1.0, (17401, 14540, 1735, 0, 1089, 37, 148864, 163840));
      (rand, "small", 0.05, (104537, 55481, 812, 1714, 25552, 20978, 304768, 16384));
      (rand, "small", 0.25, (104537, 55481, 812, 1714, 34333, 12197, 304768, 81920));
      (rand, "small", 1.0, (104537, 55481, 812, 1714, 46455, 75, 304768, 311296));
      (coloring, "small", 0.05, (17401, 12045, 438, 767, 1562, 2589, 148864, 16384));
      (coloring, "small", 0.25, (17401, 12045, 438, 767, 2653, 1498, 148864, 49152));
      (coloring, "small", 1.0, (17401, 12045, 438, 767, 4114, 37, 148864, 163840));
    ]
  in
  List.iter
    (fun ((spec : Workloads.spec), caches_name, frac, expected) ->
      let c =
        Kcachesim.simulate ~cache_config:(List.assoc caches_name caches) ~spec ~scale:Workloads.Smoke ~seed:11
          ~cache_frac:frac ()
      in
      let actual =
        Kcachesim.
          ( c.line_accesses,
            c.l1_hits,
            c.l2_hits,
            c.llc_hits,
            c.dram_hits,
            c.remote_fetches,
            c.rss_bytes,
            c.dram_cache_bytes )
      in
      let show (a, b, c, d, e, f, g, h) =
        Printf.sprintf "(%d, %d, %d, %d, %d, %d, %d, %d)" a b c d e f g h
      in
      Alcotest.(check string)
        (Printf.sprintf "%s, %s caches, at %g" spec.name caches_name frac)
        (show expected) (show actual))
    pins

let test_runtime_fetch_latency_stats () =
  let runtime, heap = make_runtime () in
  let a = Heap.alloc heap (Units.kib 64) in
  for p = 0 to 15 do
    Heap.write_u64 heap (a + (p * Units.page_size)) p
  done;
  let stats = Runtime.stats runtime in
  let p50 = List.assoc "fetch.p50_ns" stats and p99 = List.assoc "fetch.p99_ns" stats in
  check_bool "p50 in RDMA range" true (p50 > 1_000 && p50 < 100_000);
  check_bool "p99 >= p50" true (p99 >= p50)

(* ------------------------------------------------------------------ *)
(* Counter surface: every runtime keeps its counts in one registry, with
   or without a hub, and [stats]/[integrity_counters] are views over it. *)

(* Every optional component on: replicas, verified fetches, leases,
   scrubbing, prefetch and a crash plus bit-flip plan. *)
let full_config =
  {
    Runtime.default_config with
    fmem_pages = 64;
    replicas = 1;
    prefetch = true;
    verify_checksums = true;
    scrub_interval_ns = Some 500_000;
    heartbeat_ns = Some 10_000;
    lease_ns = 50_000;
    faults =
      Kona_faults.Fault_spec.parse_exn "node-crash@300us:id=0;bit-flip:p=0.2";
    fault_seed = 5;
  }

let run_kv_uniform ?hub config =
  let spec = Workloads.find "kv-uniform" in
  let rt, heap =
    System.kona ~config ?hub
      ~heap_capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
      ()
  in
  spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
  Runtime.drain rt;
  rt

let test_hub_never_changes_stats () =
  let view rt =
    (Runtime.stats rt, Runtime.integrity_counters rt, Runtime.elapsed_ns rt)
  in
  let bare = run_kv_uniform full_config in
  let hub = Kona_telemetry.Hub.create () in
  let traced = run_kv_uniform ~hub full_config in
  check_bool "same stats, integrity counters and clock" true
    (view bare = view traced);
  check_bool "the hub's registry is the runtime's" true
    (Runtime.registry traced == Kona_telemetry.Hub.registry hub);
  (* Every registered metric, the two clock gauges included. *)
  let metrics rt =
    Kona_telemetry.(
      Json.to_string
        (Snapshot.to_json (Registry.snapshot (Runtime.registry rt))))
  in
  check_bool "same registry snapshot" true (metrics bare = metrics traced);
  (* The run exercised what it configured. *)
  List.iter
    (fun (metric, floor) ->
      check_bool (metric ^ " moved") true (Runtime.count bare metric >= floor))
    [
      ("faults.node_crashes", 1); ("replication.failovers", 1);
      ("integrity.flips_armed", 1); ("integrity.repaired", 1);
      ("scrub.sweeps", 1); ("membership.heartbeats", 1);
      ("prefetch.issued", 1);
    ]

(* A view entry whose metric is not registered raises rather than
   reading 0: [stats] and [integrity_counters] evaluate on a runtime
   with every component and on a bare one, where the one [replication.*]
   entry reads 0. *)
let test_views_name_registered_metrics () =
  let rt, _ = System.kona ~heap_capacity:(Units.mib 1) () in
  let full = run_kv_uniform full_config in
  List.iter
    (fun rt ->
      check_int "stats entries" 36 (List.length (Runtime.stats rt));
      check_int "integrity entries" 30
        (List.length (Runtime.integrity_counters rt)))
    [ rt; full ];
  check_int "failover.count without replicas" 0
    (List.assoc "failover.count" (Runtime.stats rt));
  check_int "failover.count reads replication.failovers"
    (Runtime.count full "replication.failovers")
    (List.assoc "failover.count" (Runtime.stats full));
  check_int "log.lines reads cllog.lines"
    (Runtime.count full "cllog.lines")
    (List.assoc "log.lines" (Runtime.stats full));
  check_bool "unregistered name raises" true
    (match Runtime.count rt "log.lines" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "replication.* on a runtime with replicas must exist" true
    (match Runtime.count full "replication.nothing" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let profile =
    Kona_baselines.Vm_runtime.kona_vm_profile Cost_model.default
      Kona_rdma.Cost.default
  in
  let vm, heap = System.vm ~profile ~heap_capacity:(Units.mib 1) () in
  Heap.write_u64 heap (Heap.alloc heap (Units.kib 64)) 1;
  let stats = Kona_baselines.Vm_runtime.stats vm in
  check_int "Vm_runtime.stats entries" 10 (List.length stats);
  check_bool "remote_faults reads vm.remote_faults" true
    (Kona_telemetry.Registry.read
       (Kona_baselines.Vm_runtime.registry vm)
       "vm.remote_faults"
     = Some (Kona_telemetry.Snapshot.Counter (List.assoc "remote_faults" stats)))

(* ------------------------------------------------------------------ *)
(* KTracker *)

let test_ktracker_diff () =
  let heap = Heap.create ~capacity:(Units.mib 1) ~sink:Access.Tap.ignore () in
  let tracker = Ktracker.create ~heap () in
  Heap.set_sink heap (Ktracker.sink tracker);
  let a = Heap.alloc heap (Units.kib 16) in
  Heap.write_u64 heap a 1;
  Heap.write_u64 heap (a + 64) 2;
  Heap.write_u64 heap (a + 8192) 3;
  Ktracker.close_window tracker ~window:0;
  (match Ktracker.windows tracker with
  | [ w ] ->
      check_int "dirty lines" 3 w.Ktracker.dirty_lines;
      check_int "dirty pages" 2 w.Ktracker.dirty_pages;
      check_int "wp faults" 2 w.Ktracker.wp_faults;
      check_int "no invalidations in first window" 0 w.Ktracker.tlb_invalidations;
      Alcotest.(check (float 1e-9)) "amp ratio = pages*4096 / lines*64"
        (2. *. 4096. /. (3. *. 64.))
        (Ktracker.amp_ratio w)
  | _ -> Alcotest.fail "expected one window");
  (* Second window: silent rewrite (same value) is NOT dirty to a
     snapshot-diff tracker, but still takes a wp fault. *)
  Heap.write_u64 heap a 1;
  Ktracker.close_window tracker ~window:1;
  match Ktracker.windows tracker with
  | [ _; w ] ->
      check_int "silent write not dirty" 0 w.Ktracker.dirty_lines;
      check_int "wp fault still taken" 1 w.Ktracker.wp_faults;
      check_int "re-protection invalidations" 2 w.Ktracker.tlb_invalidations
  | _ -> Alcotest.fail "expected two windows"

let test_ktracker_speedup_model () =
  let heap = Heap.create ~capacity:(Units.mib 1) ~sink:Access.Tap.ignore () in
  let tracker = Ktracker.create ~heap () in
  Heap.set_sink heap (Ktracker.sink tracker);
  let a = Heap.alloc heap (Units.kib 64) in
  for p = 0 to 15 do
    Heap.write_u64 heap (a + (p * Units.page_size)) p
  done;
  Ktracker.close_window tracker ~window:0;
  let cost = Cost_model.default in
  let overhead = Ktracker.wp_overhead_ns ~cost tracker in
  check_int "16 faults worth" (16 * cost.Cost_model.minor_fault_ns) overhead;
  let speedup = Ktracker.speedup_percent ~cost ~app_ns:overhead tracker in
  Alcotest.(check (float 1e-6)) "100% when overhead = app time" 100. speedup

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_cost_model_profiles () =
  let cost = Cost_model.default in
  let p_kona = Cost_model.kona cost in
  let p_legoos = Cost_model.legoos cost in
  let p_inf = Cost_model.infiniswap cost in
  check_bool "kona remote ~ rdma" true (p_kona.Cost_model.remote_ns < 4_000.);
  check_bool "legoos 10us" true (p_legoos.Cost_model.remote_ns = 10_000.);
  check_bool "infiniswap 40us" true (p_inf.Cost_model.remote_ns = 40_000.);
  check_bool "fmem slower than cmem" true
    (p_kona.Cost_model.dram_cache_ns > (Cost_model.kona_main cost).Cost_model.dram_cache_ns)

let () =
  Alcotest.run "kona_core"
    [
      ("slab", [ Alcotest.test_case "translation" `Quick test_slab_translation ]);
      ( "controller",
        [
          Alcotest.test_case "round robin" `Quick test_controller_round_robin;
          Alcotest.test_case "skips full nodes" `Quick test_controller_skips_full_nodes;
          Alcotest.test_case "oom" `Quick test_controller_oom;
          Alcotest.test_case "occupancy" `Quick test_controller_occupancy;
          Alcotest.test_case "skips crashed nodes" `Quick
            test_controller_skips_crashed_nodes;
          Alcotest.test_case "quota admission" `Quick test_controller_quota;
        ] );
      ( "resource_manager",
        [
          Alcotest.test_case "batching" `Quick test_resource_manager_batching;
          Alcotest.test_case "spanning ranges" `Quick test_resource_manager_spanning;
          Alcotest.test_case "compare remote" `Quick
            test_resource_manager_compare_remote;
        ] );
      ( "cl_log",
        [
          Alcotest.test_case "log receiver" `Quick test_memory_node_log_receiver;
          Alcotest.test_case "roundtrip" `Quick test_cl_log_roundtrip;
          Alcotest.test_case "autoflush" `Quick test_cl_log_autoflush;
          Alcotest.test_case "empty flush + node split" `Quick
            test_cl_log_empty_flush_and_split;
          Alcotest.test_case "empty fence costs nothing" `Quick
            test_cl_log_empty_fence_costs_nothing;
          Alcotest.test_case "orphan write-through" `Quick test_dirty_tracker_orphan_path;
          Alcotest.test_case "memory node validation" `Quick test_memory_node_validation;
        ] );
      ( "cl_log-props",
        [ QCheck_alcotest.to_alcotest ~long:false prop_cl_log_breakdown_sums_to_clock ] );
      ( "runtime-props",
        [ QCheck_alcotest.to_alcotest ~long:false prop_runtime_integrity_random_ops ] );
      ( "runtime",
        [
          Alcotest.test_case "basic flow" `Quick test_runtime_basic_flow;
          Alcotest.test_case "integrity under pressure" `Quick
            test_runtime_integrity_under_pressure;
          Alcotest.test_case "workload integrity (Redis-Rand)" `Quick
            test_runtime_workload_integrity;
          Alcotest.test_case "clean pages silent" `Quick test_runtime_clean_pages_silent;
          Alcotest.test_case "multi-node distribution" `Quick
            test_runtime_multi_node_distribution;
          Alcotest.test_case "clocks" `Quick test_runtime_clocks_advance;
          Alcotest.test_case "drain invariant with windowed QPs" `Quick
            test_drain_invariant_with_windowed_qp;
          Alcotest.test_case "breakdown sums to bg clock (kv-uniform)" `Quick
            test_runtime_breakdown_matches_bg_clock;
        ] );
      ( "replication",
        [
          Alcotest.test_case "mirrors identical" `Quick test_replication_mirrors_identical;
          Alcotest.test_case "targets" `Quick test_replication_targets;
        ] );
      ( "failures",
        [
          Alcotest.test_case "outage delays traffic" `Quick test_outage_delays_traffic;
          Alcotest.test_case "mce on outage" `Quick test_mce_on_outage;
          Alcotest.test_case "no mce without outage" `Quick test_no_mce_without_outage;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "stream detection" `Quick test_prefetcher_stream_detection;
          Alcotest.test_case "random misses quiet" `Quick test_prefetcher_random_misses_quiet;
          Alcotest.test_case "runtime prefetch integrity" `Quick
            test_runtime_prefetch_integrity;
          Alcotest.test_case "next-page blind to strides" `Quick
            test_prefetcher_blind_to_strides;
        ] );
      ("pml", [ Alcotest.test_case "drain model" `Quick test_ktracker_pml_model ]);
      ( "kcachesim",
        [
          Alcotest.test_case "amat ordering" `Quick test_kcachesim_amat_ordering;
          Alcotest.test_case "cache size effect" `Quick test_kcachesim_cache_size_effect;
          Alcotest.test_case "block size tradeoff" `Quick test_kcachesim_block_size_tradeoff;
          Alcotest.test_case "pinned counts" `Quick test_kcachesim_pinned_counts;
          Alcotest.test_case "fetch latency stats" `Quick test_runtime_fetch_latency_stats;
        ] );
      ( "ktracker",
        [
          Alcotest.test_case "snapshot diff" `Quick test_ktracker_diff;
          Alcotest.test_case "speedup model" `Quick test_ktracker_speedup_model;
        ] );
      ( "cost_model",
        [ Alcotest.test_case "profiles" `Quick test_cost_model_profiles ] );
      ( "counter-surface",
        [
          Alcotest.test_case "attaching a hub never changes stats" `Quick
            test_hub_never_changes_stats;
          Alcotest.test_case "views name registered metrics" `Quick
            test_views_name_registered_metrics;
        ] );
    ]
