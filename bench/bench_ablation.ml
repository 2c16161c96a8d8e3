(* Ablations of Kona's design choices, each tied to a claim in the paper:

   - FMem associativity "does not significantly impact overall latency"
     (§6.2 (2));
   - hardware prefetching past page boundaries, impossible under page
     faults (§3, §4.4) — the paper leaves it off and calls its results
     conservative; we quantify it;
   - huge pages couple movement size to translation size for VM systems
     while Kona keeps cache-line tracking (§3);
   - replication multiplies eviction traffic by the degree, but amplifies
     less than page-granularity replication would (§4.5);
   - CL-log aggregation (capacity) and slab batching (controller traffic),
     both §4.4 mechanisms. *)

open Kona
module Heap = Kona_workloads.Heap
module Workloads = Kona_workloads.Workloads
module Units = Kona_util.Units
module Rng = Kona_util.Rng
module Vm_runtime = Kona_baselines.Vm_runtime
module System = Kona_baselines.System

let cost = Cost_model.default

(* ------------------------------------------------------------------ *)
(* 1. FMem associativity (KCacheSim) *)

let associativity ~scale () =
  Report.section "Ablation: DRAM-cache associativity (Redis-Rand, 25% cache)";
  let spec = Workloads.redis_rand in
  let rss = Kcachesim.measure_rss ~spec ~scale ~seed:42 in
  let profile = Cost_model.kona cost in
  let rows =
    List.map
      (fun assoc ->
        let counts =
          Kcachesim.simulate ~rss ~assoc ~spec ~scale ~seed:42 ~cache_frac:0.25 ()
        in
        [ string_of_int assoc; Report.f2 (Kcachesim.amat_ns ~cost ~profile counts) ])
      [ 1; 2; 4; 8; 16 ]
  in
  Report.table ~header:[ "assoc"; "Kona AMAT (ns)" ] rows;
  Report.note "paper: associativity does not significantly impact latency (4-way chosen)"

(* ------------------------------------------------------------------ *)
(* Common scaffolding: a Kona runtime over a fresh rack. *)

let kona_runtime config = System.kona ~config ~heap_capacity:(Units.mib 32) ()

(* ------------------------------------------------------------------ *)
(* 2. Prefetching *)

let prefetch () =
  Report.section "Ablation: stream prefetching of remote pages";
  let run ~prefetch ~pattern =
    let config = { Runtime.default_config with fmem_pages = 512; prefetch } in
    let rt, heap = kona_runtime config in
    let region = Units.mib 16 in
    let base = Heap.alloc heap region in
    let rng = Rng.create ~seed:4 in
    let pages = region / Units.page_size in
    for i = 0 to (2 * pages) - 1 do
      let page = match pattern with
        | `Seq -> i mod pages
        | `Rand -> Rng.int rng pages
      in
      ignore (Heap.read_u64 heap (base + (page * Units.page_size)))
    done;
    Runtime.drain rt;
    let stats = Runtime.stats rt in
    (Runtime.app_ns rt, List.assoc "prefetch.issued" stats,
     List.assoc "prefetch.useful" stats)
  in
  let rows =
    List.concat_map
      (fun (pattern, name) ->
        let off_ns, _, _ = run ~prefetch:false ~pattern in
        let on_ns, issued, useful = run ~prefetch:true ~pattern in
        [
          [
            name;
            Report.ns off_ns;
            Report.ns on_ns;
            Printf.sprintf "%.2fx" (float_of_int off_ns /. float_of_int on_ns);
            string_of_int issued;
            string_of_int useful;
          ];
        ])
      [ (`Seq, "sequential scan"); (`Rand, "random reads") ]
  in
  Report.table
    ~header:[ "pattern"; "no prefetch"; "prefetch"; "speedup"; "issued"; "useful" ]
    rows;
  Report.note "paper: prefetching benefits Kona only (faults serialize it away); results there are conservative without it"

(* ------------------------------------------------------------------ *)
(* 3. Huge pages *)

let huge_pages () =
  Report.section "Ablation: huge pages (scattered writes, VM vs Kona)";
  Report.note "64KB stands in for 2MB pages at our scaled footprints";
  let region = Units.mib 8 in
  let touch heap base =
    (* One 8-byte write per 4KB page, random order: the dirty-amplification
       worst case. *)
    let pages = region / Units.page_size in
    let order = Array.init pages Fun.id in
    Rng.shuffle (Rng.create ~seed:7) order;
    Array.iter
      (fun p -> Heap.write_u64 heap (base + (p * Units.page_size)) p)
      order
  in
  (* Kona *)
  let config = { Runtime.default_config with fmem_pages = 1024 } in
  let rt, heap = kona_runtime config in
  let base = Heap.alloc heap region in
  touch heap base;
  Runtime.drain rt;
  let kona_bytes = List.assoc "log.lines" (Runtime.stats rt) * Cl_log.entry_bytes in
  (* VM at 4KB and 64KB pages *)
  let vm_run page_bytes =
    let profile = Vm_runtime.kona_vm_profile cost Kona_rdma.Cost.default in
    let config =
      {
        Vm_runtime.default_config with
        cache_pages = Units.mib 4 / page_bytes;
        page_bytes;
      }
    in
    let vm, heap =
      System.vm ~config ~profile ~heap_capacity:(Units.mib 32) ()
    in
    let base = Heap.alloc heap region in
    touch heap base;
    Vm_runtime.drain vm;
    let stats = Vm_runtime.stats vm in
    (List.assoc "dirty_pages_written" stats * page_bytes, List.assoc "remote_faults" stats)
  in
  let vm4k_bytes, vm4k_faults = vm_run Units.page_size in
  let vm64k_bytes, vm64k_faults = vm_run (Units.kib 64) in
  let written = region / Units.page_size * 8 in
  let row name bytes faults =
    [
      name;
      Printf.sprintf "%dKB" (bytes / 1024);
      Printf.sprintf "%.0fx" (float_of_int bytes /. float_of_int written);
      (match faults with Some f -> string_of_int f | None -> "0 (no faults)");
    ]
  in
  Report.table
    ~header:[ "system"; "evicted"; "amplification"; "remote faults" ]
    [
      row "Kona (CL tracking)" kona_bytes None;
      row "Kona-VM 4KB pages" vm4k_bytes (Some vm4k_faults);
      row "Kona-VM 64KB pages" vm64k_bytes (Some vm64k_faults);
    ];
  Report.note "paper: huge pages multiply VM dirty amplification (Table 2: 31x -> 5516x);";
  Report.note "Kona keeps cache-line tracking regardless of translation page size"

(* ------------------------------------------------------------------ *)
(* 4. Eviction replication *)

let replication () =
  Report.section "Ablation: eviction replication (SS4.5)";
  let run replicas =
    let config = { Runtime.default_config with fmem_pages = 256; replicas } in
    let rt, heap = kona_runtime config in
    let region = Units.mib 4 in
    let base = Heap.alloc heap region in
    let rng = Rng.create ~seed:9 in
    for _ = 1 to 100_000 do
      Heap.write_u64 heap (base + (Rng.int rng (region / 8) * 8)) 1
    done;
    Runtime.drain rt;
    assert (Runtime.count rt "replication.divergent" = 0);
    let lines = List.assoc "log.lines" (Runtime.stats rt) in
    ( Runtime.app_ns rt,
      Runtime.bg_ns rt,
      lines,
      Runtime.count rt "replication.lines" )
  in
  let rows =
    List.map
      (fun replicas ->
        let app, bg, lines, replicated = run replicas in
        [
          string_of_int replicas;
          Report.ns app;
          Report.ns bg;
          string_of_int lines;
          string_of_int replicated;
        ])
      [ 0; 1; 2 ]
  in
  Report.table
    ~header:[ "replicas"; "app time"; "eviction time"; "lines"; "replica lines" ]
    rows;
  Report.note "paper: replication slows eviction, rarely the application (off critical path)"

(* ------------------------------------------------------------------ *)
(* 5 & 6. Log capacity and slab size *)

let batching () =
  Report.section "Ablation: CL-log capacity and slab batching";
  let log_row capacity =
    let config = { Runtime.default_config with fmem_pages = 256; log_capacity = capacity } in
    let rt, heap = kona_runtime config in
    let region = Units.mib 4 in
    let base = Heap.alloc heap region in
    let rng = Rng.create ~seed:3 in
    for _ = 1 to 50_000 do
      Heap.write_u64 heap (base + (Rng.int rng (region / 8) * 8)) 1
    done;
    Runtime.drain rt;
    let stats = Runtime.stats rt in
    [
      string_of_int capacity;
      string_of_int (List.assoc "log.flushes" stats);
      Report.ns (Runtime.bg_ns rt);
    ]
  in
  Report.table ~header:[ "log capacity (lines)"; "flushes"; "eviction time" ]
    (List.map log_row [ 16; 64; 256; 1024 ]);
  let slab_row slab_kib =
    let controller = Rack_controller.create ~slab_size:(Units.kib slab_kib) () in
    Rack_controller.register_node controller
      (Memory_node.create ~id:0 ~capacity:(Units.mib 64));
    let rm = Resource_manager.create ~controller () in
    Resource_manager.ensure_backed rm ~addr:0 ~len:(Units.mib 16);
    [
      Printf.sprintf "%dKB" slab_kib;
      string_of_int (Resource_manager.controller_round_trips rm);
      string_of_int (List.length (Resource_manager.slabs rm));
    ]
  in
  Report.table ~header:[ "slab size"; "controller round trips"; "slabs" ]
    (List.map slab_row [ 64; 256; 1024; 4096 ]);
  Report.note "bigger logs amortize flushes; bigger slabs keep allocation off the critical path"

(* ------------------------------------------------------------------ *)
(* 7. FMem eviction policy (shared by Kona and the VM baseline) *)

let eviction_policy () =
  Report.section "Ablation: FMem eviction policy (random-access KV sweep)";
  let run policy =
    let config =
      { Runtime.default_config with fmem_pages = 256; fmem_policy = policy }
    in
    let rt, heap = kona_runtime config in
    let region = Units.mib 4 in
    let base = Heap.alloc heap region in
    let rng = Rng.create ~seed:21 in
    for _ = 1 to 150_000 do
      (* zipf-hot page mix: a policy-sensitive reuse pattern *)
      let page = Rng.zipf rng ~n:(region / Units.page_size) ~theta:0.7 in
      ignore (Heap.read_u64 heap (base + (page * Units.page_size)))
    done;
    Runtime.drain rt;
    let stats = Runtime.stats rt in
    (Runtime.app_ns rt, List.assoc "fetch.pages" stats)
  in
  let rows =
    List.map
      (fun (policy, name) ->
        let app, fetches = run policy in
        [ name; Report.ns app; string_of_int fetches ])
      [
        (Kona_coherence.Fmem.Lru, "LRU (paper)");
        (Kona_coherence.Fmem.Fifo, "FIFO");
        (Kona_coherence.Fmem.Random 1, "random");
      ]
  in
  Report.table ~header:[ "policy"; "app time"; "remote fetches" ] rows;
  Report.note "LRU wins on reuse-heavy traffic; both runtimes share the policy, so";
  Report.note "Fig. 7 comparisons isolate granularity, not replacement quality"

let run ~scale () =
  associativity ~scale ();
  prefetch ();
  huge_pages ();
  replication ();
  eviction_policy ();
  batching ()
