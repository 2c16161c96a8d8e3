(* Bechamel microbenchmarks of the hot data-path primitives: wall-clock
   cost of the simulator's building blocks (not virtual time).  These back
   the ablation discussion in EXPERIMENTS.md: the runtime's per-access
   overhead is dominated by the cache simulator, and CL-log staging is
   cheap relative to page copies. *)

open Bechamel
open Toolkit
module Units = Kona_util.Units
module Bitmap = Kona_util.Bitmap
module Crc32c = Kona_util.Crc32c
module Rng = Kona_util.Rng
module Cache = Kona_cachesim.Cache
module Hierarchy = Kona_cachesim.Hierarchy
module Heap = Kona_workloads.Heap

let test_bitmap_segments =
  let bitmap = Bitmap.create 64 in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 12 do
    Bitmap.set bitmap (Rng.int rng 64)
  done;
  Test.make ~name:"bitmap.segments (64b, 12 set)"
    (Staged.stage (fun () -> ignore (Bitmap.segments bitmap : (int * int) list)))

let test_cache_access =
  let cache = Cache.create ~name:"bench" ~size:(Units.kib 32) ~assoc:8 ~block:64 in
  let rng = Rng.create ~seed:2 in
  Test.make ~name:"cache.access (32KB/8-way)"
    (Staged.stage (fun () ->
         ignore (Cache.access cache ~addr:(Rng.int rng 1_000_000) ~write:false : bool)))

(* The eviction snoop on a page with 4 of its 64 lines in the LLC (about
   what an evicted Redis-Rand page holds): each run writes the 4 lines back
   in from memory, then [flush_page] recalls them. *)
let test_flush_page =
  let h = Hierarchy.create () in
  let page = 7 in
  Test.make ~name:"hierarchy: 4 writes + flush_page"
    (Staged.stage (fun () ->
         for i = 0 to 3 do
           let addr = (page * Units.page_size) + (i * Units.cache_line) in
           ignore (Hierarchy.access_line h ~addr ~write:true : int)
         done;
         ignore (Hierarchy.flush_page h ~page ~half:0 : int);
         ignore (Hierarchy.flush_page h ~page ~half:1 : int)))

let test_heap_write =
  let heap = Heap.create ~capacity:(Units.mib 1) ~sink:Kona_trace.Access.Tap.ignore () in
  let addr = Heap.alloc heap 4096 in
  Test.make ~name:"heap.write_u64 (instrumented)"
    (Staged.stage (fun () -> Heap.write_u64 heap addr 42))

let test_kv_set =
  let heap = Heap.create ~capacity:(Units.mib 8) ~sink:Kona_trace.Access.Tap.ignore () in
  let kv = Kona_workloads.Kv_store.create heap ~nbuckets:1024 in
  let rng = Rng.create ~seed:3 in
  Test.make ~name:"kv_store.set (104B value)"
    (Staged.stage (fun () ->
         Kona_workloads.Kv_store.set kv
           (Kona_workloads.Kv_store.key_of_int (Rng.int rng 500))
           (String.make 104 'v')))

let test_fmem_lookup =
  let fmem = Kona_coherence.Fmem.create ~pages:1024 () in
  for p = 0 to 1023 do
    ignore (Kona_coherence.Fmem.insert fmem ~vpage:p)
  done;
  let rng = Rng.create ~seed:4 in
  Test.make ~name:"fmem.lookup (1024 frames)"
    (Staged.stage (fun () ->
         ignore (Kona_coherence.Fmem.lookup fmem ~vpage:(Rng.int rng 2048) : bool)))

(* The integrity CRC on its two paths: every CL-log wire CRC and line
   check digests one 64B line, and a verified fetch or scrub checks a
   page with [Memory_node.verify_range], which digests only the lines a
   bit flip touched since they last matched (4 of 64 here). *)
let page_store =
  Bytes.init Units.page_size (fun i -> Char.chr ((i * 31) land 0xff))

let test_crc32c_line =
  Test.make ~name:"crc32c.digest_bytes (64B line)"
    (Staged.stage (fun () ->
         ignore
           (Crc32c.digest_bytes page_store ~pos:0 ~len:Units.cache_line
             : int)))

let test_verify_range =
  let node = Kona.Memory_node.create ~id:0 ~capacity:Units.page_size in
  Kona.Memory_node.write node ~addr:0 ~data:(Bytes.to_string page_store);
  List.iter
    (fun line ->
      ignore
        (Kona.Memory_node.corrupt_bit node ~addr:(line * Units.cache_line) ~bit:0
          : [ `Fresh | `Already_corrupt ]))
    [ 3; 17; 40; 63 ];
  Test.make ~name:"memory_node.verify_range (4KiB page, 4 flipped lines)"
    (Staged.stage (fun () ->
         ignore
           (Kona.Memory_node.verify_range node ~addr:0 ~len:Units.page_size
             : int list)))

(* A memory node's set-up cost: the page index only, since pages arrive
   on first touch. *)
let test_node_create =
  Test.make ~name:"memory_node.create (128 MiB)"
    (Staged.stage (fun () ->
         ignore (Kona.Memory_node.create ~id:0 ~capacity:(Units.mib 128))))

(* The CL-log apply path: a shipment of one 64-line entry covering a
   whole page — 64 wire CRCs, 64 at-rest checks and 64 line stores. *)
let test_receive_log =
  let node = Kona.Memory_node.create ~id:0 ~capacity:Units.page_size in
  let entries =
    [ Kona.Memory_node.entry ~addr:0 ~data:(Bytes.to_string page_store) ]
  in
  Test.make ~name:"memory_node.receive_log (one 64-line page)"
    (Staged.stage (fun () ->
         ignore (Kona.Memory_node.receive_log node entries)))

(* One placement-migrator epoch on the rack demo (the placement bench's
   heat-policy rack: one fast node of three, 64 FMem frames per tenant)
   after its whole replay: the page view over both tenants' heat
   counters, then the plan.  Virtual time stands still between runs, so
   after the first few the plan moves nothing: the figure is what an
   epoch costs to decide.  A function, since the replay takes a second:
   only a [micro] run pays for it. *)
let test_migrate_epoch () =
  let engine =
    Kona_rack.Rack.start
      (Bench_placement.config ~scale:Kona_workloads.Workloads.Smoke
         ~policy:"heat" ~ops:[])
      Bench_placement.tenants
  in
  while Kona_rack.Rack.step engine > 0 do
    ()
  done;
  Test.make ~name:"rack.migrate_epoch (rack demo)"
    (Staged.stage (fun () -> Kona_rack.Rack.force_migration engine))

let tests =
  [ test_bitmap_segments; test_cache_access; test_flush_page; test_heap_write;
    test_kv_set; test_fmem_lookup; test_crc32c_line; test_verify_range;
    test_node_create; test_receive_log ]

let run () =
  Report.section "Microbenchmarks (host wall-clock, bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "  %-36s %8.1f ns/op@." name est
          | _ -> Format.printf "  %-36s (no estimate)@." name)
        analyzed)
    (tests @ [ test_migrate_epoch () ])
