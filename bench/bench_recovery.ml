(* Membership and recovery under partitions: sweep lease duration x
   partition length under a seeded asymmetric partition (the node stays
   alive, its links drop) and report what the failure detector did:
   detection latency at each death declaration, false positives (the
   partitioned node was healthy all along), fencing rejects when its
   stale deliveries replay at heal, and failover latency when a mirror
   was promoted.

   The headline trade-off: a short lease detects real failures quickly
   but declares a partitioned-but-alive node dead (false positive) as
   soon as the window outlives twice the lease; a long lease tolerates
   longer partitions at the price of detection latency.  Either way the
   fencing epoch keeps the returning node's stale writes out — zero
   divergence on every row. *)

open Kona
module Workloads = Kona_workloads.Workloads
module Histogram = Kona_util.Histogram
module Membership = Kona_membership.Membership
module Fault_spec = Kona_faults.Fault_spec
module System = Kona_baselines.System

let artifact_path = "BENCH_recovery.json"

let run_one ~heartbeat_ns ~lease_ns ~partition_us =
  let faults =
    Fault_spec.parse_exn
      (* node 0 is where placement homes the working set first — a
         partition there actually cuts in-flight deliveries *)
      (Printf.sprintf "partition@200us:dur=%dus,nodes=0" partition_us)
  in
  let config =
    {
      Runtime.default_config with
      (* a small cache keeps the log shipping all run long, so stale
         in-flight deliveries exist for the fence to reject *)
      fmem_pages = 64;
      replicas = 1;
      faults;
      fault_seed = 11;
      heartbeat_ns = Some heartbeat_ns;
      lease_ns;
    }
  in
  let spec = Workloads.find "kv-uniform" in
  let rt, heap =
    System.kona ~config
      ~heap_capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
      ()
  in
  spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
  Runtime.drain rt;
  assert (Runtime.count rt "replication.divergent" = 0);
  rt

let run () =
  Report.with_artifact ~path:artifact_path (fun () ->
      Report.section "Recovery: lease detection under asymmetric partitions";
      let rows =
        List.concat_map
          (fun (heartbeat_ns, lease_ns) ->
            List.map
              (fun partition_us ->
                let rt = run_one ~heartbeat_ns ~lease_ns ~partition_us in
                let m = Option.get (Runtime.membership rt) in
                let detect = Membership.detect_latency m in
                let fo = Runtime.histogram rt "failover.latency_ns" in
                [
                  Report.ns heartbeat_ns;
                  Report.ns lease_ns;
                  Printf.sprintf "%dus" partition_us;
                  string_of_int (Runtime.count rt "partition.started");
                  string_of_int (Runtime.count rt "membership.declared_dead");
                  string_of_int (Runtime.count rt "membership.false_positives");
                  (if Histogram.count detect = 0 then "-"
                   else Report.ns (Histogram.percentile detect 50.));
                  (if Histogram.count fo = 0 then "-"
                   else Report.ns (Histogram.percentile fo 50.));
                  string_of_int (Runtime.count rt "fencing.rejects");
                  string_of_int (Runtime.count rt "fencing.post_fence_writes");
                  (match Runtime.degraded rt with
                  | Some _ -> "degraded"
                  | None -> "ok");
                ])
              [ 150; 2_000; 5_000 ])
          [ (10_000, 50_000); (100_000, 1_000_000) ]
      in
      Report.table
        ~header:
          [
            "heartbeat"; "lease"; "partition"; "windows"; "dead"; "false+";
            "detect p50"; "failover p50"; "fence rejects"; "post-fence wr";
            "status";
          ]
        rows;
      Report.note
        "windows outliving 2x the lease declare a healthy node dead (false+):";
      Report.note
        "failover promotes its mirror and the fencing epoch rejects the";
      Report.note
        "returning node's stale deliveries — zero divergence on every row;";
      Report.note "artifact mirrored to %s" artifact_path)
