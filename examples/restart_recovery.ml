(* Failure mode 1 (paper §4.5): the compute host crashes.  Its memory is
   gone — but the application's data lives on the memory nodes.  A new
   process on a fresh host re-attaches: it restores its heap image from
   disaggregated memory and resumes serving, with every key intact.

   Run with: dune exec examples/restart_recovery.exe *)

open Kona
module Heap = Kona_workloads.Heap
module Kv_store = Kona_workloads.Kv_store
module Units = Kona_util.Units

let keys = 2_000
let nbuckets = 1024

let () =
  (* The rack outlives any compute host. *)
  let controller = Rack_controller.create ~slab_size:(Units.mib 1) () in
  Rack_controller.register_node controller (Memory_node.create ~id:0 ~capacity:(Units.mib 32));
  Rack_controller.register_node controller (Memory_node.create ~id:1 ~capacity:(Units.mib 32));

  (* ------------- incarnation 1: build state, then "crash" ------------- *)
  let heap1_ref = ref None in
  let read_local ~addr ~len = Heap.peek_bytes (Option.get !heap1_ref) addr len in
  let runtime1 =
    Runtime.create
      ~config:{ Runtime.default_config with fmem_pages = 128 }
      ~controller ~read_local ()
  in
  let heap1 = Heap.create ~capacity:(Units.mib 8) ~sink:(Runtime.sink runtime1) () in
  heap1_ref := Some heap1;
  let kv = Kv_store.create heap1 ~nbuckets in
  for i = 0 to keys - 1 do
    Kv_store.set kv (Kv_store.key_of_int i) (Printf.sprintf "value-%06d" i)
  done;
  (* The server's root pointer, as it would be registered with the rack. *)
  let root = Kv_store.table_addr kv in
  Runtime.drain runtime1;
  let rm1 = Runtime.resource_manager runtime1 in
  Fmt.pr "incarnation 1: stored %d keys, drained to %d slabs; host crashes now@."
    keys (List.length (Resource_manager.slabs rm1));

  (* ------------- incarnation 2: fresh host, recover ------------- *)
  (* A brand-new heap: all zeros, nothing local survives the crash. *)
  let heap2 = Heap.create ~capacity:(Units.mib 8) ~sink:Kona_trace.Access.Tap.ignore () in
  (* Restore through the runtime: [recover_heap] flushes the cache-line
     log, streams every backed page back over RDMA reads, and charges the
     whole restore to the virtual clock (a real restart would fault pages
     in lazily through a new runtime; eager restore keeps the example
     self-contained). *)
  let restored, lost =
    Runtime.recover_heap runtime1 ~restore:(fun ~addr ~data ->
        if addr + Units.page_size <= Heap.capacity heap2 then
          Heap.restore_page heap2 ~addr ~data)
  in
  Fmt.pr "incarnation 2: restored %d pages from the rack (%d unreachable) in %s@."
    restored lost
    (Fmt.str "%.1fus"
       (float_of_int
          (Kona_util.Histogram.percentile
             (Runtime.histogram runtime1 "recovery.latency_ns")
             50.)
       /. 1e3));

  (* Re-attach to the table through the recovered root pointer. *)
  let kv2 = Kv_store.attach heap2 ~nbuckets ~table:root ~entries:keys in
  let missing = ref 0 in
  for i = 0 to keys - 1 do
    match Kv_store.get kv2 (Kv_store.key_of_int i) with
    | Some v when v = Printf.sprintf "value-%06d" i -> ()
    | Some _ | None -> incr missing
  done;
  Fmt.pr "recovery check: %d/%d keys intact after restart@." (keys - !missing) keys;
  if !missing > 0 then exit 1
