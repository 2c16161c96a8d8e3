(* §6.1 / §2.1 latency claims: per-operation remote-access and eviction
   latencies for each system, measured from the models that the rest of the
   evaluation builds on. *)

open Kona
module Units = Kona_util.Units
module Vm_runtime = Kona_baselines.Vm_runtime

let cost = Cost_model.default
let rdma = Kona_rdma.Cost.default

(* Send-queue window sweep: the same eviction stream (2048 pages, 8 dirty
   lines each, through a 64-entry CL log with selective signaling) under
   different SQ depths.  A depth-1 window serializes every log write; deeper
   windows recover the pipelining that unbounded posting gets for free,
   while bounding in-flight state. *)
let sweep_window_depth () =
  Report.section "Sec. 4.4: eviction throughput vs send-queue window depth";
  let rows =
    List.map
      (fun sq_depth ->
        let clock = Kona_util.Clock.create () in
        let qp = Kona_rdma.Qp.create ~cost:rdma ?sq_depth ~signal_interval:4 ~clock () in
        let node = Memory_node.create ~id:0 ~capacity:(Units.mib 64) in
        let controller = Kona.Rack_controller.create () in
        Kona.Rack_controller.register_node controller node;
        let log = Kona.Cl_log.create ~capacity:64 ~qp ~cost:rdma ~controller () in
        let run = String.make (8 * Units.cache_line) 'd' in
        for page = 0 to 2047 do
          Kona.Cl_log.note_bitmap_scan log ~lines:Units.lines_per_page;
          Kona.Cl_log.append_run log ~node:0 ~raddr:(page * Units.page_size) ~data:run
        done;
        Kona.Cl_log.flush log;
        let depth_label =
          match sq_depth with Some d -> string_of_int d | None -> "unbounded"
        in
        [
          depth_label;
          Report.ns (Kona_util.Clock.now clock);
          string_of_int (Kona_rdma.Qp.window_stalls qp);
          Report.ns (Kona_rdma.Qp.window_stall_ns qp);
          string_of_int (Kona_rdma.Qp.outstanding_peak qp);
          string_of_int (Kona.Cl_log.doorbell_batches log);
        ])
      [ Some 1; Some 4; Some 16; None ]
  in
  Report.table
    ~header:
      [ "sq_depth"; "eviction time"; "stalls"; "stall time"; "peak outst"; "doorbells" ]
    rows;
  Report.note
    "deeper windows hide log-write completions behind continued staging; \
     depth 1 exposes every round trip"

let run () =
  Report.section "Sec. 6.1: remote access and eviction path latencies";
  let raw_4k = Kona_rdma.Cost.batch_ns rdma ~sizes:[ Units.page_size ] in
  let p_vm = Vm_runtime.kona_vm_profile cost rdma in
  let p_lego = Vm_runtime.legoos_profile cost in
  let p_inf = Vm_runtime.infiniswap_profile cost in
  Report.table
    ~header:[ "operation"; "latency"; "paper" ]
    [
      [ "raw RDMA 4KB read/write"; Report.ns raw_4k; "~3us" ];
      [ "Kona remote fetch (no fault)"; Report.ns raw_4k; "~RDMA latency" ];
      [ "Kona-VM remote fault (userfaultfd)";
        Report.ns p_vm.Vm_runtime.remote_fetch_ns; "< Infiniswap by up to 60%" ];
      [ "LegoOS remote fault"; Report.ns p_lego.Vm_runtime.remote_fetch_ns; "10us" ];
      [ "Infiniswap remote fault"; Report.ns p_inf.Vm_runtime.remote_fetch_ns; "40us" ];
      [ "write-protect (minor) fault"; Report.ns cost.Cost_model.minor_fault_ns; "~us-scale" ];
      [ "TLB single invalidation"; Report.ns cost.Cost_model.tlb_invalidate_ns; "-" ];
      [ "Infiniswap page eviction";
        Report.ns
          (p_inf.Vm_runtime.eviction_extra_ns + raw_4k
          + Kona_rdma.Cost.memcpy_ns rdma ~bytes:Units.page_size);
        ">32us" ];
    ];
  Report.note "Kona-VM vs Infiniswap fault latency: %.0f%% lower (paper: up to 60%%)"
    (100.
    *. (1.
       -. float_of_int p_vm.Vm_runtime.remote_fetch_ns
          /. float_of_int p_inf.Vm_runtime.remote_fetch_ns));
  sweep_window_depth ()
