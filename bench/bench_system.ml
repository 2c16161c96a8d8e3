(* End-to-end system run (not a paper figure): every Table 2 workload
   executed through the full Kona runtime — CPU caches, coherence directory,
   FMem, CL-log eviction, memory nodes — with ~25% of the footprint local,
   reporting virtual time, traffic, and the byte-level integrity verdict.
   This is the "does the whole machine hold together" table. *)

open Kona
module Workloads = Kona_workloads.Workloads
module Units = Kona_util.Units
module System = Kona_baselines.System

let run_one ~scale (spec : Workloads.spec) =
  (* ~25% of the workload's arena as local cache. *)
  let fmem_pages =
    max 64 (spec.Workloads.heap_capacity scale / Units.page_size / 4)
  in
  let config = { Runtime.default_config with fmem_pages } in
  let runtime, heap =
    System.kona ~config ~heap_capacity:(spec.Workloads.heap_capacity scale) ()
  in
  spec.Workloads.run scale ~heap ~seed:42;
  Runtime.drain runtime;
  let stats = Runtime.stats runtime in
  let check = System.check heap (Runtime.resource_manager runtime) in
  [
    spec.Workloads.name;
    Report.ns (Runtime.app_ns runtime);
    Report.ns (Runtime.bg_ns runtime);
    string_of_int (List.assoc "fetch.pages" stats);
    string_of_int (List.assoc "evict.lines" stats);
    Printf.sprintf "%dKB" (List.assoc "log.lines" stats * Cl_log.entry_bytes / 1024);
    string_of_int (List.assoc "mce.raised" stats);
    (match check.System.mismatches with
    | 0 -> "OK"
    | n -> Printf.sprintf "%d DIVERGED" n);
  ]

let run ~scale () =
  Report.section "System: all workloads end-to-end on the Kona runtime";
  Report.note "~25%% of each footprint cached locally; integrity = remote == heap after drain";
  (* The runtime path (full cache simulation per access) is much slower than
     the analyses, so this table always runs workloads at smoke size. *)
  ignore scale;
  let rows = List.map (run_one ~scale:Workloads.Smoke) Workloads.all in
  Report.table
    ~header:
      [ "workload"; "app time"; "evict time"; "fetches"; "dirty lines";
        "log bytes"; "MCEs"; "integrity" ]
    rows
