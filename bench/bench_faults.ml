(* Fault injection and recovery (§4.5): sweep replication degree x crash
   time under a seeded fault plan (a node crash plus 0.5% WQE loss) and
   report what recovery cost: failover control-plane latency, background
   re-replication, and whether data was lost.

   The interesting contrast: with replicas the crash is absorbed — a
   mirror is promoted, zero divergence, bounded failover latency; without,
   the same plan degrades the run (lost log writes, unreachable pages) but
   never raises. *)

open Kona
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Histogram = Kona_util.Histogram
module Rng = Kona_util.Rng
module Fault_spec = Kona_faults.Fault_spec
module System = Kona_baselines.System

let run_one ~replicas ~crash_us =
  let faults =
    Fault_spec.parse_exn
      (Printf.sprintf "node-crash@%dus:id=1;wqe-drop:p=0.005" crash_us)
  in
  let config =
    { Runtime.default_config with fmem_pages = 256; replicas; faults }
  in
  let rt, heap = System.kona ~config ~heap_capacity:(Units.mib 32) () in
  let region = Units.mib 4 in
  let base = Heap.alloc heap region in
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 100_000 do
    Heap.write_u64 heap (base + (Rng.int rng (region / 8) * 8)) 1
  done;
  Runtime.drain rt;
  assert (Runtime.count rt "replication.divergent" = 0);
  rt

let run () =
  Report.section "Faults: node crash, failover, recovery (SS4.5)";
  let rows =
    List.concat_map
      (fun replicas ->
        List.map
          (fun crash_us ->
            let rt = run_one ~replicas ~crash_us in
            let fo = Runtime.histogram rt "failover.latency_ns" in
            let rc = Runtime.histogram rt "recovery.latency_ns" in
            let stats = Runtime.stats rt in
            [
              string_of_int replicas;
              Printf.sprintf "%dus" crash_us;
              string_of_int (List.assoc "faults.injected" stats);
              (if Histogram.count fo = 0 then "-"
               else Report.ns (Histogram.percentile fo 50.));
              (if Histogram.count rc = 0 then "-"
               else Report.ns (int_of_float (Histogram.mean rc)));
              string_of_int (List.assoc "log.lost_writes" stats);
              (match Runtime.degraded rt with Some _ -> "degraded" | None -> "ok");
            ])
          [ 200; 600 ])
      [ 0; 1; 2 ]
  in
  Report.table
    ~header:
      [
        "replicas"; "crash at"; "faults"; "failover p50"; "re-replicate";
        "lost writes"; "status";
      ]
    rows;
  Report.note "with replicas the crash is absorbed: a mirror is promoted and";
  Report.note
    "re-replicated in the background; without, the run degrades (no raise)"
