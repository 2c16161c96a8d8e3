open Kona
module Heap = Kona_workloads.Heap
module Workloads = Kona_workloads.Workloads
module Units = Kona_util.Units
module Hub = Kona_telemetry.Hub

let names = [ "kona"; "kona-vm"; "legoos"; "infiniswap" ]

let fabric () =
  let controller = Rack_controller.create ~slab_size:(Units.mib 1) () in
  List.iter
    (fun id ->
      Rack_controller.register_node controller
        (Memory_node.create ~id ~capacity:(Units.mib 128)))
    [ 0; 1 ];
  controller

(* The runtime reads evicted bytes from the heap, and the heap feeds its
   accesses to the runtime: create the runtime against a forward
   reference, then the heap around the runtime's sink. *)
let knot ~heap_capacity create sink =
  let heap_ref = ref None in
  let rt =
    create ~read_local:(fun ~addr ~len ->
        Heap.peek_bytes (Option.get !heap_ref) addr len)
  in
  let heap = Heap.create ~capacity:heap_capacity ~sink:(sink rt) () in
  heap_ref := Some heap;
  (rt, heap)

let kona ?config ?nic ?hub ?(controller = fabric ()) ~heap_capacity () =
  knot ~heap_capacity
    (fun ~read_local ->
      Runtime.create ?config ?nic ?hub ~controller ~read_local ())
    Runtime.sink

let vm ?config ?nic ?hub ?(controller = fabric ()) ~profile ~heap_capacity () =
  knot ~heap_capacity
    (fun ~read_local ->
      Vm_runtime.create ?config ?nic ?hub ~profile ~controller ~read_local ())
    Vm_runtime.sink

type check = Resource_manager.check = {
  checked : int;
  mismatches : int;
  lost : int;
}

let check ?(unrepairable = []) heap rm =
  Resource_manager.compare_remote rm
    ~read_local:(fun ~addr ~len -> Heap.peek_bytes heap addr len)
    ~keep:(fun vpage ->
      (vpage + 1) * Units.page_size <= Heap.capacity heap
      && (not (Heap.page_poked heap ~page:vpage))
      && not (List.mem vpage unrepairable))

type result = {
  system : string;
  hub : Hub.t;
  elapsed_ns : int;
  stats : (string * int) list;
  footprint : int;
  check : check;
  degraded : string option;
}

let profile_of system =
  let cost = Cost_model.default in
  match system with
  | "kona-vm" -> Vm_runtime.kona_vm_profile cost Kona_rdma.Cost.default
  | "legoos" -> Vm_runtime.legoos_profile cost
  | "infiniswap" -> Vm_runtime.infiniswap_profile cost
  | other ->
      invalid_arg
        (Printf.sprintf "unknown system %S (%s)" other
           (String.concat " | " names))

let run ~kona:config ~vm:vm_config (spec : Workloads.spec) scale ~seed system =
  let hub = Hub.create () in
  let heap_capacity = spec.Workloads.heap_capacity scale in
  let result heap ~elapsed_ns ~stats ~check ~degraded =
    { system; hub; elapsed_ns; stats; footprint = Heap.used heap; check; degraded }
  in
  if system = "kona" then begin
    let rt, heap = kona ~config ~hub ~heap_capacity () in
    spec.Workloads.run scale ~heap ~seed;
    Runtime.drain rt;
    result heap ~elapsed_ns:(Runtime.elapsed_ns rt) ~stats:(Runtime.stats rt)
      ~check:
        (check ~unrepairable:(Runtime.unrepairable_pages rt) heap
           (Runtime.resource_manager rt))
      ~degraded:(Runtime.degraded rt)
  end
  else begin
    let profile = profile_of system in
    let vm, heap = vm ~config:vm_config ~hub ~profile ~heap_capacity () in
    spec.Workloads.run scale ~heap ~seed;
    Vm_runtime.drain vm;
    result heap ~elapsed_ns:(Vm_runtime.elapsed_ns vm)
      ~stats:(Vm_runtime.stats vm)
      ~check:(check heap (Vm_runtime.resource_manager vm))
      ~degraded:None
  end
