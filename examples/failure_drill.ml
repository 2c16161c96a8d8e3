(* Failure drill (paper §4.5): run an application over disaggregated memory
   while (1) replicating evictions to two mirror nodes and (2) injecting a
   network outage that trips the cache-coherence timeout and raises
   machine-check exceptions.  The application survives, the MCE path
   absorbs the outage, and every replica ends byte-identical.

   Run with: dune exec examples/failure_drill.exe *)

open Kona
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Rng = Kona_util.Rng

let () =
  let controller = Rack_controller.create ~slab_size:(Units.mib 1) () in
  Rack_controller.register_node controller (Memory_node.create ~id:0 ~capacity:(Units.mib 32));
  Rack_controller.register_node controller (Memory_node.create ~id:1 ~capacity:(Units.mib 32));

  (* A flaky network: two outages, 3ms and 5ms, early in the run. *)
  let nic = Kona_rdma.Nic.create () in
  Kona_rdma.Nic.inject_outage nic ~at:(Units.us 500) ~duration:(Units.ms 3);
  Kona_rdma.Nic.inject_outage nic ~at:(Units.ms 20) ~duration:(Units.ms 5);

  let heap_ref = ref None in
  let read_local ~addr ~len = Heap.peek_bytes (Option.get !heap_ref) addr len in
  let config =
    {
      Runtime.default_config with
      fmem_pages = 128;
      replicas = 2;
      mce_threshold_ns = Some (Units.us 200);
    }
  in
  let runtime = Runtime.create ~config ~nic ~controller ~read_local () in
  let heap = Heap.create ~capacity:(Units.mib 8) ~sink:(Runtime.sink runtime) () in
  heap_ref := Some heap;

  Fmt.pr "failure drill: 2 replicas, 2 injected outages, MCE threshold 200us@.";
  let region = Units.mib 2 in
  let base = Heap.alloc heap region in
  let rng = Rng.create ~seed:13 in
  for i = 1 to 200_000 do
    let addr = base + (Rng.int rng (region / 8) * 8) in
    if i mod 3 = 0 then ignore (Heap.read_u64 heap addr)
    else Heap.write_u64 heap addr i
  done;
  Runtime.drain runtime;

  let stats = Runtime.stats runtime in
  Fmt.pr "survived: %d fetches, %d machine-check exceptions handled@."
    (List.assoc "fetch.pages" stats)
    (List.assoc "mce.raised" stats);
  Fmt.pr "app time %a (outage time injected: %a)@." Units.pp_ns (Runtime.app_ns runtime)
    Units.pp_ns (Kona_rdma.Nic.outage_total nic);

  (* Primary integrity... *)
  let rm = Runtime.resource_manager runtime in
  let mismatches = ref 0 in
  Resource_manager.iter_backed_pages rm (fun ~vpage ~node ~remote_addr ->
      let page_base = vpage * Units.page_size in
      if page_base + Units.page_size <= Heap.capacity heap then begin
        let local = Heap.peek_bytes heap page_base Units.page_size in
        let remote =
          Memory_node.peek (Rack_controller.node controller ~id:node) ~addr:remote_addr
            ~len:Units.page_size
        in
        if local <> remote then incr mismatches
      end);
  Fmt.pr "primary integrity: %s@."
    (if !mismatches = 0 then "intact" else "DIVERGED");
  (* ... and replica integrity. *)
  let divergent = Runtime.count runtime "replication.divergent" in
  Fmt.pr "replicas: %d lines mirrored, %d divergent mirrors@."
    (Runtime.count runtime "replication.lines")
    divergent;
  if divergent > 0 then exit 1;
  if !mismatches > 0 then exit 1
