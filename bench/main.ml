(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index).

     dune exec bench/main.exe                 -- run everything, full scale
     dune exec bench/main.exe -- table2 fig8  -- run a subset
     dune exec bench/main.exe -- --quick      -- smoke scale (CI-fast)

   Experiment ids: table2 fig2 fig7 fig8 fig9 fig11 sec61 ablate faults
   recovery integrity micro (fig2 includes fig3; fig9 includes fig10;
   ablate covers the design-choice studies: associativity, prefetching,
   huge pages, replication, batching; faults sweeps replication degree x
   crash time under the fault injector; recovery sweeps membership lease
   x partition duration and writes its own BENCH_recovery.json;
   integrity sweeps bit-flip rate x scrub interval and writes its own
   BENCH_integrity.json).

   Every run also writes BENCH_telemetry.json: one JSON line per printed
   table row (see Report), closed by full runtime-telemetry snapshots of a
   smoke Redis-Rand run on Kona and Kona-VM. *)

module Workloads = Kona_workloads.Workloads
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Hub = Kona_telemetry.Hub
module Json = Kona_telemetry.Json
module Snapshot = Kona_telemetry.Snapshot

let all_ids =
  [ "table2"; "fig2"; "fig7"; "fig8"; "fig9"; "fig11"; "sec61"; "ablate"; "system";
    "faults"; "recovery"; "integrity"; "rack"; "placement"; "shmrpc"; "micro" ]

let artifact_path = "BENCH_telemetry.json"

(* One smoke Redis-Rand run on [system] with a telemetry hub attached;
   returns the hub and the run's virtual time. *)
let telemetry_run system =
  let controller = Kona.Rack_controller.create ~slab_size:(Units.mib 1) () in
  Kona.Rack_controller.register_node controller
    (Kona.Memory_node.create ~id:0 ~capacity:(Units.mib 128));
  Kona.Rack_controller.register_node controller
    (Kona.Memory_node.create ~id:1 ~capacity:(Units.mib 128));
  let hub = Hub.create () in
  let heap_ref = ref None in
  let read_local ~addr ~len = Heap.peek_bytes (Option.get !heap_ref) addr len in
  let sink, drain, elapsed =
    match system with
    | `Kona ->
        let rt = Kona.Runtime.create ~hub ~controller ~read_local () in
        ( Kona.Runtime.sink rt,
          (fun () -> Kona.Runtime.drain rt),
          fun () -> Kona.Runtime.elapsed_ns rt )
    | `Vm ->
        let profile =
          Kona_baselines.Vm_runtime.kona_vm_profile Kona.Cost_model.default
            Kona_rdma.Cost.default
        in
        let vm =
          Kona_baselines.Vm_runtime.create ~hub ~profile ~controller ~read_local ()
        in
        ( Kona_baselines.Vm_runtime.sink vm,
          (fun () -> Kona_baselines.Vm_runtime.drain vm),
          fun () -> Kona_baselines.Vm_runtime.elapsed_ns vm )
  in
  let spec = Workloads.redis_rand in
  let heap =
    Heap.create ~capacity:(spec.Workloads.heap_capacity Workloads.Smoke) ~sink ()
  in
  heap_ref := Some heap;
  spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
  drain ();
  (hub, elapsed ())

let emit_telemetry () =
  Report.section "telemetry";
  List.iter
    (fun (name, sys) ->
      let hub, elapsed = telemetry_run sys in
      let snap = Hub.snapshot hub in
      Report.json_line
        [
          ("kind", Json.String "telemetry");
          ("system", Json.String name);
          ("workload", Json.String "Redis-Rand");
          ("elapsed_ns", Json.Int elapsed);
          ("metrics", Snapshot.to_json snap);
        ];
      Report.note "%s: %d metrics appended to %s" name (List.length snap)
        artifact_path)
    [ ("kona", `Kona); ("kona-vm", `Vm) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let ids = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let ids = if ids = [] then all_ids else ids in
  let unknown = List.filter (fun id -> not (List.mem id all_ids)) ids in
  if unknown <> [] then begin
    Format.eprintf "unknown experiment(s): %s@.known: %s@."
      (String.concat " " unknown) (String.concat " " all_ids);
    exit 2
  end;
  let scale = if quick then Workloads.Smoke else Workloads.Full in
  Format.printf "Kona reproduction benchmarks (%s scale)@."
    (if quick then "smoke" else "full");
  Report.open_json ~path:artifact_path
    ~meta:
      [
        ("scale", Json.String (if quick then "smoke" else "full"));
        ("experiments", Json.List (List.map (fun id -> Json.String id) ids));
      ]
    ();
  let t0 = Sys.time () in
  let run id =
    match id with
    | "table2" -> Bench_table2.run ~scale ()
    | "fig2" -> Bench_fig2_3.run ~scale ()
    | "fig7" -> Bench_fig7.run ()
    | "fig8" -> Bench_fig8.run ~scale ()
    | "fig9" -> Bench_fig9_10.run ~scale ()
    | "fig11" -> Bench_fig11.run ()
    | "sec61" -> Bench_sec61.run ()
    | "ablate" -> Bench_ablation.run ~scale ()
    | "system" -> Bench_system.run ~scale ()
    | "faults" -> Bench_faults.run ()
    | "recovery" -> Bench_recovery.run ()
    | "integrity" -> Bench_integrity.run ()
    | "rack" -> Bench_rack.run ~scale ()
    | "placement" -> Bench_placement.run ~scale ()
    | "shmrpc" -> Bench_shmrpc.run ~scale ()
    | "micro" -> Bench_micro.run ()
    | _ -> assert false
  in
  List.iter run ids;
  emit_telemetry ();
  Report.close_json ();
  Format.printf "@.done in %.1fs (host time); artifact: %s@." (Sys.time () -. t0)
    artifact_path
