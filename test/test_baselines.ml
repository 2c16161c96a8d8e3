(* Tests for Kona_baselines: the Kona-VM runtime's fault/eviction semantics,
   its data integrity, and the headline Kona-vs-VM comparisons. *)

open Kona
open Kona_baselines
module Units = Kona_util.Units
module Rng = Kona_util.Rng
module Heap = Kona_workloads.Heap
module Workloads = Kona_workloads.Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cost = Cost_model.default

(* One 16 MiB memory node behind 256 KiB slabs. *)
let small_fabric () =
  let controller = Rack_controller.create ~slab_size:(Units.kib 256) () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 16));
  controller

let kona_vm_profile = Vm_runtime.kona_vm_profile cost Kona_rdma.Cost.default

let make_vm ?(cache_pages = 64) ?(write_protect = true) ?(page_bytes = Units.page_size)
    ?(profile = kona_vm_profile) () =
  let config =
    { Vm_runtime.default_config with cache_pages; write_protect; page_bytes }
  in
  System.vm ~config ~profile ~controller:(small_fabric ())
    ~heap_capacity:(Units.mib 4) ()

let make_kona () =
  let config = { Runtime.default_config with fmem_pages = 64 } in
  System.kona ~config ~controller:(small_fabric ()) ~heap_capacity:(Units.mib 4) ()

(* ------------------------------------------------------------------ *)
(* Fault semantics *)

let test_vm_two_faults_on_first_write () =
  let vm, heap = make_vm () in
  let a = Heap.alloc heap 4096 in
  Heap.write_u64 heap a 1;
  let stats = Vm_runtime.stats vm in
  check_int "one remote fault" 1 (List.assoc "remote_faults" stats);
  check_int "one wp fault (the second fault)" 1 (List.assoc "wp_faults" stats);
  Heap.write_u64 heap (a + 8) 2;
  check_int "no further faults on same page" 1
    (List.assoc "wp_faults" (Vm_runtime.stats vm))

let test_vm_read_then_write () =
  let vm, heap = make_vm () in
  let a = Heap.alloc heap 4096 in
  ignore (Heap.read_u64 heap a);
  check_int "read takes no wp fault" 0 (List.assoc "wp_faults" (Vm_runtime.stats vm));
  Heap.write_u64 heap a 5;
  check_int "first write faults" 1 (List.assoc "wp_faults" (Vm_runtime.stats vm))

let test_vm_no_write_protect_mode () =
  let vm, heap = make_vm ~write_protect:false () in
  let a = Heap.alloc heap 4096 in
  Heap.write_u64 heap a 1;
  let stats = Vm_runtime.stats vm in
  check_int "NoWP: remote fault only" 1 (List.assoc "remote_faults" stats);
  check_int "NoWP: no wp faults" 0 (List.assoc "wp_faults" stats)

let test_vm_refault_after_eviction () =
  (* assoc 4: five pages mapping to the same set force an eviction; the
     evicted page faults again on re-touch and its TLB entry is shot down. *)
  let vm, heap = make_vm ~cache_pages:4 () in
  let base = Heap.alloc heap (Units.kib 64) in
  for p = 0 to 4 do
    Heap.write_u64 heap (base + (p * Units.page_size)) p
  done;
  let stats = Vm_runtime.stats vm in
  check_int "five fetches" 5 (List.assoc "remote_faults" stats);
  check_int "one eviction" 1 (List.assoc "pages_evicted" stats);
  check_int "dirty page written" 1 (List.assoc "dirty_pages_written" stats);
  check_int "shootdown charged" 1 (List.assoc "shootdowns" stats);
  (* touch the evicted page again: refault *)
  ignore (Heap.read_u64 heap base);
  check_bool "refault" true (List.assoc "remote_faults" (Vm_runtime.stats vm) >= 6)

(* ------------------------------------------------------------------ *)
(* Integrity *)

let vm_integrity vm heap =
  Vm_runtime.drain vm;
  let c = System.check heap (Vm_runtime.resource_manager vm) in
  check_bool "pages backed" true (c.System.checked > 0);
  check_int "remote identical to heap" 0 c.System.mismatches;
  check_int "no page lost" 0 c.System.lost

let test_vm_integrity_under_pressure () =
  let vm, heap = make_vm ~cache_pages:16 () in
  let rng = Rng.create ~seed:5 in
  let base = Heap.alloc heap (Units.kib 256) in
  for _ = 1 to 10_000 do
    let offset = Rng.int rng (Units.kib 256 - 8) in
    Heap.write_u64 heap (base + offset) (Rng.int rng 1_000_000)
  done;
  vm_integrity vm heap

let test_vm_nowp_integrity () =
  (* NoWP cannot track dirtiness, so it writes every victim back; data must
     still be correct. *)
  let vm, heap = make_vm ~cache_pages:8 ~write_protect:false () in
  let base = Heap.alloc heap (Units.kib 128) in
  for p = 0 to 31 do
    Heap.write_u64 heap (base + (p * Units.page_size)) (p * 31)
  done;
  vm_integrity vm heap

let test_vm_huge_pages () =
  (* 64KB pages: 16x fewer faults on a sequential sweep, 16x more bytes per
     dirty eviction, and integrity still holds. *)
  let make page_bytes =
    let vm, heap = make_vm ~cache_pages:8 ~page_bytes () in
    let base = Heap.alloc heap (Units.mib 1) in
    for p = 0 to (Units.mib 1 / Units.page_size) - 1 do
      Heap.write_u64 heap (base + (p * Units.page_size)) p
    done;
    (vm, heap)
  in
  let vm4, _ = make Units.page_size in
  let vm64, heap64 = make (Units.kib 64) in
  let faults v = List.assoc "remote_faults" (Vm_runtime.stats v) in
  check_bool "huge pages take ~16x fewer faults" true (faults vm4 > 10 * faults vm64);
  vm_integrity vm64 heap64;
  let bytes v pb = List.assoc "dirty_pages_written" (Vm_runtime.stats v) * pb in
  check_bool "huge pages ship more bytes" true
    (bytes vm64 (Units.kib 64) > bytes vm4 Units.page_size)

let test_vm_page_bytes_validation () =
  let controller = Rack_controller.create () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 1));
  let profile = Vm_runtime.kona_vm_profile cost Kona_rdma.Cost.default in
  check_bool "rejects non-multiple page size" true
    (try
       ignore
         (Vm_runtime.create
            ~config:{ Vm_runtime.default_config with page_bytes = 5000 }
            ~profile ~controller
            ~read_local:(fun ~addr:_ ~len:_ -> "")
            ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Kona vs Kona-VM comparisons (small-scale versions of §6.1) *)

(* The Fig. 7 microbenchmark access pattern: read + write one cache-line in
   every page of a region, region twice the local cache. *)
let run_fig7_pattern ~sink ~heap ~region =
  let base = Heap.alloc heap region in
  ignore sink;
  for p = 0 to (region / Units.page_size) - 1 do
    let addr = base + (p * Units.page_size) in
    ignore (Heap.read_u64 heap addr);
    Heap.write_u64 heap addr p
  done

let test_kona_faster_than_vm () =
  let region = Units.kib 512 in
  let kona, heap = make_kona () in
  run_fig7_pattern ~sink:() ~heap ~region;
  Runtime.drain kona;
  let kona_ns = Runtime.elapsed_ns kona in
  (* Kona-VM *)
  let vm, vm_heap = make_vm ~cache_pages:64 () in
  run_fig7_pattern ~sink:() ~heap:vm_heap ~region;
  Vm_runtime.drain vm;
  let vm_ns = Vm_runtime.elapsed_ns vm in
  check_bool
    (Printf.sprintf "kona (%d ns) at least 2x faster than kona-vm (%d ns)" kona_ns vm_ns)
    true
    (vm_ns > 2 * kona_ns);
  check_bool "but not absurdly faster" true (vm_ns < 30 * kona_ns)

let test_vm_writes_more_bytes () =
  (* Page-granularity eviction ships whole pages; Kona ships dirty lines. *)
  let region = Units.kib 512 in
  let kona, heap = make_kona () in
  run_fig7_pattern ~sink:() ~heap ~region;
  Runtime.drain kona;
  let kona_lines = List.assoc "log.lines" (Runtime.stats kona) in
  let vm, vm_heap = make_vm ~cache_pages:64 () in
  run_fig7_pattern ~sink:() ~heap:vm_heap ~region;
  Vm_runtime.drain vm;
  let vm_pages = List.assoc "dirty_pages_written" (Vm_runtime.stats vm) in
  (* one dirty line per page in this pattern: Kona ships ~1/64 the data *)
  check_bool "kona line count ~ vm page count" true
    (kona_lines <= vm_pages * 4 && kona_lines >= vm_pages / 4);
  check_bool "kona bytes much smaller" true (kona_lines * 72 * 8 < vm_pages * 4096)

let test_profiles_ordering () =
  let p_vm = Vm_runtime.kona_vm_profile cost Kona_rdma.Cost.default in
  let p_lego = Vm_runtime.legoos_profile cost in
  let p_inf = Vm_runtime.infiniswap_profile cost in
  (* §6.2: Kona-VM achieves remote latency similar to LegoOS. *)
  check_bool "vm ~ lego (within 25%)" true
    (float_of_int p_vm.Vm_runtime.remote_fetch_ns
    < 1.25 *. float_of_int p_lego.Vm_runtime.remote_fetch_ns);
  check_bool "lego < inf" true
    (p_lego.Vm_runtime.remote_fetch_ns < p_inf.Vm_runtime.remote_fetch_ns);
  (* §6.1: Kona-VM is similar to or faster than Infiniswap by up to 60% *)
  check_bool "vm >= 40% of infiniswap's latency saved" true
    (float_of_int p_vm.Vm_runtime.remote_fetch_ns
    < 0.6 *. float_of_int p_inf.Vm_runtime.remote_fetch_ns)

let prop_vm_integrity_random_ops =
  QCheck.Test.make ~name:"vm runtime integrity under random op sequences" ~count:25
    QCheck.(list_of_size Gen.(20 -- 200) (pair (int_bound (Units.kib 128 - 9)) bool))
    (fun ops ->
      let vm, heap = make_vm ~cache_pages:8 () in
      let base = Heap.alloc heap (Units.kib 128) in
      List.iteri
        (fun i (off, write) ->
          if write then Heap.write_u64 heap (base + off) i
          else ignore (Heap.read_u64 heap (base + off)))
        ops;
      Vm_runtime.drain vm;
      let c = System.check heap (Vm_runtime.resource_manager vm) in
      c.System.mismatches = 0 && c.System.lost = 0)

let test_legoos_infiniswap_runtimes () =
  (* The cost profiles drive real runtimes, and fault latency ordering
     carries through to end-to-end time. *)
  let run profile =
    let vm, heap = make_vm ~cache_pages:16 ~profile () in
    let base = Heap.alloc heap (Units.kib 128) in
    for p = 0 to 31 do
      Heap.write_u64 heap (base + (p * Units.page_size)) p
    done;
    vm_integrity vm heap;
    Vm_runtime.elapsed_ns vm
  in
  let lego = run (Vm_runtime.legoos_profile cost) in
  let inf = run (Vm_runtime.infiniswap_profile cost) in
  check_bool "infiniswap slower than legoos end-to-end" true (inf > lego)

(* ------------------------------------------------------------------ *)
(* System: the single-runtime driver and its oracle rule *)

let test_system_check_skips () =
  let controller = small_fabric () in
  let vm, heap =
    System.vm
      ~config:{ Vm_runtime.default_config with cache_pages = 8 }
      ~profile:kona_vm_profile ~controller ~heap_capacity:(Units.mib 4) ()
  in
  let base = Heap.alloc heap (Units.kib 64) in
  for p = 0 to 15 do
    Heap.write_u64 heap (base + (p * Units.page_size)) (p + 1)
  done;
  Vm_runtime.drain vm;
  let rm = Vm_runtime.resource_manager vm in
  let all = System.check heap rm in
  check_int "remote equals the heap" 0 all.System.mismatches;
  (* a poke lands bytes the runtime never saw: mmap'd input, skipped *)
  Heap.poke_u64 heap base 0xdead;
  let poked = System.check heap rm in
  check_int "poked page skipped" (all.System.checked - 1) poked.System.checked;
  check_int "poked page not a mismatch" 0 poked.System.mismatches;
  (* a page the runtime declared unrepairable is skipped too *)
  let vaddr = base + Units.page_size in
  (match Resource_manager.translate rm ~vaddr with
  | Some (node, raddr) ->
      Memory_node.write (Rack_controller.node controller ~id:node) ~addr:raddr
        ~data:"corrupt"
  | None -> Alcotest.fail "page must be backed");
  check_int "corrupted page diverges" 1 (System.check heap rm).System.mismatches;
  let declared =
    System.check ~unrepairable:[ vaddr / Units.page_size ] heap rm
  in
  check_int "declared page skipped" (all.System.checked - 2)
    declared.System.checked;
  check_int "declared page not a mismatch" 0 declared.System.mismatches

let test_system_unknown_name () =
  check_bool "unknown system rejected" true
    (match
       System.run ~kona:Runtime.default_config ~vm:Vm_runtime.default_config
         Workloads.redis_seq Workloads.Smoke ~seed:7 "kona-nvm"
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A scrubbed bit flip with no replica to repair from: the runtime
   declares the page unrepairable, so the run is degraded, not divergent
   ([konactl run] exits 2, not 1). *)
let test_system_unrepairable_is_degraded () =
  let kona =
    {
      Runtime.default_config with
      fmem_pages = 64;
      faults = Kona_faults.Fault_spec.parse_exn "bit-flip:p=0.3";
      scrub_interval_ns = Some 50_000;
    }
  in
  let spec = Workloads.find "kv-uniform" in
  let r =
    System.run ~kona ~vm:Vm_runtime.default_config spec Workloads.Smoke ~seed:42
      "kona"
  in
  check_int "no page diverged" 0 r.System.check.System.mismatches;
  check_bool "degraded" true (r.System.degraded <> None);
  (* the same run by hand: the declared page is the one that differs *)
  let rt, heap =
    System.kona ~config:kona
      ~heap_capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
      ()
  in
  spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
  Runtime.drain rt;
  check_bool "pages declared unrepairable" true
    (Runtime.unrepairable_pages rt <> []);
  check_bool "they differ from the heap" true
    ((System.check heap (Runtime.resource_manager rt)).System.mismatches > 0)

let () =
  Alcotest.run "kona_baselines"
    [
      ( "faults",
        [
          Alcotest.test_case "two faults on first write" `Quick
            test_vm_two_faults_on_first_write;
          Alcotest.test_case "read then write" `Quick test_vm_read_then_write;
          Alcotest.test_case "NoWP mode" `Quick test_vm_no_write_protect_mode;
          Alcotest.test_case "refault after eviction" `Quick test_vm_refault_after_eviction;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "random writes under pressure" `Quick
            test_vm_integrity_under_pressure;
          Alcotest.test_case "NoWP conservative writeback" `Quick test_vm_nowp_integrity;
        ] );
      ( "integrity-props",
        [ QCheck_alcotest.to_alcotest ~long:false prop_vm_integrity_random_ops ] );
      ( "huge_pages",
        [
          Alcotest.test_case "fewer faults, more bytes" `Quick test_vm_huge_pages;
          Alcotest.test_case "page size validation" `Quick test_vm_page_bytes_validation;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "kona faster than kona-vm" `Quick test_kona_faster_than_vm;
          Alcotest.test_case "vm ships more bytes" `Quick test_vm_writes_more_bytes;
          Alcotest.test_case "profile ordering" `Quick test_profiles_ordering;
          Alcotest.test_case "legoos/infiniswap runtimes" `Quick
            test_legoos_infiniswap_runtimes;
        ] );
      ( "system",
        [
          Alcotest.test_case "check skips poked and declared pages" `Quick
            test_system_check_skips;
          Alcotest.test_case "unknown system name" `Quick test_system_unknown_name;
          Alcotest.test_case "unrepairable page is degradation" `Quick
            test_system_unrepairable_is_degraded;
        ] );
    ]
