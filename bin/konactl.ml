(* konactl: command-line driver for the Kona reproduction.

     konactl workloads                 list the Table 2 workloads
     konactl amp [-w NAME] [--full]    measure dirty-data amplification
     konactl run -w NAME [--system kona,kona-vm] [--fmem-pages N] [--full]
                 [--metrics-json PATH] [--trace PATH] [--scrub-interval NS]
                 [--verify-checksums]
                                       execute a workload on one or more
                                       runtimes and report time, traffic
                                       and integrity
     konactl stats -w NAME [...]       same runs, telemetry table output
     konactl rack SPEC [--metrics-json PATH] [--repro-check]
                                       multi-tenant rack: run one scenario
                                       spec line under the invariant
                                       registry
     konactl fuzz [--episodes N] [--ops K] [--seed S]
                  [--repro-out PATH] [--metrics-json PATH]
                                       seeded whole-surface scenario fuzzing
                                       against the cross-subsystem invariant
                                       registry; failures shrink to minimal
                                       rerunnable repro specs (exit 5)
     konactl soak [same flags as fuzz] fuzz over the corruption family only *)

open Kona
module Workloads = Kona_workloads.Workloads
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Amp = Kona_trace.Amplification
module Window = Kona_trace.Window
module Vm_runtime = Kona_baselines.Vm_runtime
module System = Kona_baselines.System
module Backoff = Kona_util.Backoff
module Hub = Kona_telemetry.Hub
module Json = Kona_telemetry.Json
module Snapshot = Kona_telemetry.Snapshot

let scale_of full = if full then Workloads.Full else Workloads.Smoke
let scale_name full = if full then "full" else "smoke"

(* Every JSON export is one document on one line. *)
let write_json ~verb path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "%s: wrote %s@." verb path

(* ------------------------------------------------------------------ *)

let cmd_workloads () =
  List.iter
    (fun (s : Workloads.spec) ->
      Fmt.pr "%-22s paper: %.1fGB, amp 4KB %.2f / 2MB %.2f / CL %.2f@."
        s.Workloads.name s.Workloads.paper_mem_gb s.Workloads.paper_amp_4k
        s.Workloads.paper_amp_2m s.Workloads.paper_amp_cl)
    Workloads.all;
  0

(* ------------------------------------------------------------------ *)

let specs_of = function
  | None -> Workloads.all
  | Some name -> (
      match Workloads.find name with
      | spec -> [ spec ]
      | exception Not_found ->
          Fmt.epr "unknown workload %S (try 'konactl workloads')@." name;
          exit 1)

let cmd_amp workload seed full =
  let scale = scale_of full in
  List.iter
    (fun (spec : Workloads.spec) ->
      let amp = Amp.create () in
      let w =
        Window.create ~quantum:(spec.Workloads.quantum scale) ~inner:(Amp.sink amp)
          ~on_boundary:(fun ~window -> Amp.close_window amp ~window)
      in
      let heap =
        Heap.create ~capacity:(spec.Workloads.heap_capacity scale)
          ~sink:(Window.sink w) ()
      in
      spec.Workloads.run scale ~heap ~seed;
      Window.flush w;
      let a = Amp.aggregate ~drop_last:true amp in
      Fmt.pr "%-22s windows=%4d written=%9d  4K=%6.2f  2M=%8.2f  CL=%5.2f@."
        spec.Workloads.name
        (List.length (Amp.windows amp))
        a.Amp.total_written_bytes a.Amp.agg_amp_page a.Amp.agg_amp_huge
        a.Amp.agg_amp_line)
    (specs_of workload);
  0

(* ------------------------------------------------------------------ *)

let parse_fault_spec = function
  | None -> []
  | Some s -> (
      match Kona_faults.Fault_spec.parse s with
      | Ok plan -> plan
      | Error msg ->
          Fmt.epr "bad --fault-spec: %s@." msg;
          exit 1)

(* One retry/backoff policy for every resending layer (QP retransmission,
   RPC resend) across both runtimes — [--retry-max]/[--backoff-base-ns]
   override the shared defaults rather than any per-layer knob. *)
let backoff_of ~retry_max ~backoff_base_ns =
  let c = Backoff.default in
  let c =
    match retry_max with Some n -> Backoff.with_retry_max c n | None -> c
  in
  match backoff_base_ns with
  | Some b -> Backoff.with_base_ns c b
  | None -> c

let systems_of s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  with
  | [] ->
      Fmt.epr "no system given (%s)@." (String.concat " | " System.names);
      exit 1
  | l -> (
      match List.find_opt (fun x -> not (List.mem x System.names)) l with
      | Some other ->
          Fmt.epr "unknown system %S (%s)@." other
            (String.concat " | " System.names);
          exit 1
      | None -> l)

(* "trace.jsonl" -> "trace.kona-vm.jsonl" when several systems share one
   --trace path. *)
let per_system_path path sys ~single =
  if single then path
  else
    match String.rindex_opt path '.' with
    | Some i when i > 0 ->
        String.sub path 0 i ^ "." ^ sys
        ^ String.sub path i (String.length path - i)
    | _ -> path ^ "." ^ sys

let export_results ~(spec : Workloads.spec) ~full ~seed ~metrics_json ~trace
    results =
  (match metrics_json with
  | None -> ()
  | Some path ->
      let docs =
        List.map
          (fun r ->
            Snapshot.document (Hub.snapshot r.System.hub)
              ~meta:
                [
                  ("system", Json.String r.System.system);
                  ("workload", Json.String spec.Workloads.name);
                  ("scale", Json.String (scale_name full));
                  ("seed", Json.Int seed);
                  ("elapsed_ns", Json.Int r.System.elapsed_ns);
                ])
          results
      in
      let doc =
        Json.Obj
          [
            ("schema", Json.String "kona.telemetry.v1");
            ("workload", Json.String spec.Workloads.name);
            ("systems", Json.List docs);
          ]
      in
      write_json ~verb:"metrics" path doc);
  match trace with
  | None -> ()
  | Some path ->
      let single = List.length results = 1 in
      List.iter
        (fun r ->
          let p = per_system_path path r.System.system ~single in
          let n = Hub.write_trace ~path:p r.System.hub in
          Fmt.pr "trace: wrote %d events to %s@." n p)
        results

(* Exit status shared by run/stats: 3 on a resource abort (an exhausted
   retry budget, printed as [aborted: ...]), 1 on divergence (a real bug),
   2 on a gracefully degraded run (data lost to an unrecovered fault —
   reported, not raised, including pages the runtime declared
   unrepairable), 0 otherwise. *)
let report_faults (r : System.result) =
  (match r.System.degraded with
  | Some reason -> Fmt.pr "degraded: %s@." reason
  | None -> ());
  if r.System.check.System.lost > 0 then
    Fmt.pr "integrity: %d page(s) unreachable on crashed nodes@."
      r.System.check.System.lost

let exit_status (results : System.result list) =
  if List.exists (fun r -> r.System.check.System.mismatches > 0) results then 1
  else if List.exists (fun r -> r.System.degraded <> None) results then 2
  else 0

(* [run] and [stats] share every flag and this whole body; they differ
   only in what [print] shows for each result. *)
let cmd_run print workload systems fmem_pages replicas prefetch sq_depth
    signal_interval fault_spec fault_seed check_replicas scrub_interval
    verify_checksums retry_max backoff_base_ns heartbeat_ns lease_ns seed
    metrics_json trace full =
  let scale = scale_of full in
  let spec =
    match specs_of (Some workload) with [ s ] -> s | _ -> assert false
  in
  let faults = parse_fault_spec fault_spec in
  let backoff = backoff_of ~retry_max ~backoff_base_ns in
  let kona =
    {
      Runtime.default_config with
      fmem_pages;
      replicas;
      prefetch;
      sq_depth;
      signal_interval;
      faults;
      fault_seed;
      check_replicas;
      scrub_interval_ns = scrub_interval;
      verify_checksums;
      backoff;
      heartbeat_ns;
      lease_ns;
    }
  in
  (* faults, replicas, scrubbing and leases are Kona-only *)
  let vm =
    {
      Vm_runtime.default_config with
      cache_pages = fmem_pages;
      sq_depth;
      signal_interval;
      backoff;
    }
  in
  let results =
    try List.map (System.run ~kona ~vm spec scale ~seed) (systems_of systems)
    with e -> (
      match Kona_scenario.Episode.abort_of_exn e with
      | Some why ->
          Fmt.epr "aborted: %s@." why;
          exit 3
      | None -> raise e)
  in
  List.iter
    (fun r ->
      print ~spec ~full ~seed r;
      report_faults r)
    results;
  export_results ~spec ~full ~seed ~metrics_json ~trace results;
  exit_status results

let print_run ~(spec : Workloads.spec) ~full:_ ~seed:_ (r : System.result) =
  Fmt.pr "%s on %s: %a virtual time, footprint %a@." spec.Workloads.name
    r.System.system Units.pp_ns r.System.elapsed_ns Units.pp_bytes
    r.System.footprint;
  List.iter (fun (k, v) -> Fmt.pr "  %-26s %d@." k v) r.System.stats;
  Fmt.pr "integrity: %s@."
    (match r.System.check.System.mismatches with
    | 0 -> "remote memory matches the heap"
    | n -> Printf.sprintf "%d PAGES DIVERGED" n)

let print_stats ~(spec : Workloads.spec) ~full ~seed (r : System.result) =
  Fmt.pr "== %s on %s (%s, seed %d): %a ==@." spec.Workloads.name
    r.System.system (scale_name full) seed Units.pp_ns r.System.elapsed_ns;
  Fmt.pr "%a@." Snapshot.pp_table (Hub.snapshot r.System.hub)

(* ------------------------------------------------------------------ *)
(* Autonomous scenario fuzzing (lib/scenario): seeded op sequences over
   the whole public surface — run slices, crashes, link flaps, corruption
   clauses, quota changes, shared-segment publish/map traffic, scrub
   sweeps, node adds/drains, rebalances and migration epochs — checked
   against the cross-subsystem invariant registry at every op boundary
   and at episode end.  Every episode is one spec line that
   [konactl rack --repro-check] reruns; failures are delta-debugged to
   minimal repro specs.  Exit 5 = a named invariant was violated.  The
   chaos soak is this loop over the generator's corruption family. *)

module Rng = Kona_util.Rng
module Scn = Kona_scenario.Spec
module Scn_gen = Kona_scenario.Gen
module Episode = Kona_scenario.Episode
module Invariants = Kona_scenario.Invariants
module Shrink = Kona_scenario.Shrink

let first_violation_name spec ~check_end =
  match (Episode.execute ~check_end spec).Episode.oc_violations with
  | [] -> None
  | v :: _ -> Some v.Invariants.inv

let print_violations (o : Episode.outcome) =
  List.iter
    (fun v -> Fmt.pr "violation [%s] %s@." v.Invariants.inv v.Invariants.detail)
    o.Episode.oc_violations

(* [generate] draws episode [seed]'s spec: [Gen.generate] for fuzz, its
   corruption family for soak. *)
let cmd_fuzz generate episodes ops master_seed repro_out metrics_json =
  let rng = Rng.create ~seed:master_seed in
  let failed = ref false in
  let docs = ref [] in
  let repro_chan = ref None in
  let write_repro m =
    match repro_out with
    | None -> ()
    | Some path ->
        let oc =
          match !repro_chan with
          | Some oc -> oc
          | None ->
              let oc = open_out path in
              repro_chan := Some oc;
              oc
        in
        output_string oc (m ^ "\n")
  in
  for episode = 0 to episodes - 1 do
    let ep_seed = Rng.int rng 1_000_000 in
    let spec = generate ~seed:ep_seed ~ops in
    let line = Scn.to_string spec in
    Fmt.pr "episode %d: seed %d@.  %s@." episode ep_seed line;
    let o = Episode.execute spec in
    (match o.Episode.oc_aborted with
    | Some a -> Fmt.pr "  aborted: %s@." a
    | None -> ());
    let repro =
      match o.Episode.oc_violations with
      | [] ->
          Fmt.pr "  PASS fingerprint %s@."
            (match o.Episode.oc_fingerprint with "" -> "-" | f -> f);
          ""
      | vs ->
          failed := true;
          List.iter
            (fun v ->
              Fmt.pr "  FAIL [%s] %s@." v.Invariants.inv v.Invariants.detail)
            vs;
          (* Boundary-scoped failures shrink against the cheap
             boundary-only executor; end-scoped ones need the full
             episode per candidate, so spend fewer attempts. *)
          let boundary_only = o.Episode.oc_result = None in
          let oracle s =
            first_violation_name s ~check_end:(not boundary_only)
          in
          let max_attempts = if boundary_only then 400 else 48 in
          let r = Shrink.run ~max_attempts ~oracle spec in
          let m = Scn.to_string r.Shrink.minimal in
          Fmt.pr "  shrunk to %d op(s) in %d attempt(s):@.  %s@."
            (List.length r.Shrink.minimal.Scn.ops)
            r.Shrink.attempts m;
          write_repro m;
          m
    in
    docs :=
      Json.Obj
        [
          ("episode", Json.Int episode);
          ("seed", Json.Int ep_seed);
          ("spec", Json.String line);
          ("fingerprint", Json.String o.Episode.oc_fingerprint);
          ("passed", Json.Bool (o.Episode.oc_violations = []));
          ( "aborted",
            Json.String (Option.value ~default:"" o.Episode.oc_aborted) );
          ( "violations",
            Json.List
              (List.map
                 (fun v ->
                   Json.Obj
                     [
                       ("invariant", Json.String v.Invariants.inv);
                       ("detail", Json.String v.Invariants.detail);
                     ])
                 o.Episode.oc_violations) );
          ("repro", Json.String repro);
        ]
      :: !docs
  done;
  (match !repro_chan with
  | Some oc ->
      close_out oc;
      Fmt.pr "fuzz: wrote minimal repro spec(s) to %s@."
        (Option.get repro_out)
  | None -> ());
  (match metrics_json with
  | None -> ()
  | Some path ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "kona.fuzz.v1");
            ("master_seed", Json.Int master_seed);
            ("ops_per_episode", Json.Int ops);
            ( "invariants",
              Json.List (List.map (fun n -> Json.String n) Invariants.names)
            );
            ("passed", Json.Bool (not !failed));
            ("episodes", Json.List (List.rev !docs));
          ]
      in
      write_json ~verb:"fuzz" path doc);
  if !failed then begin
    Fmt.pr "fuzz: FAILED (invariant violation)@.";
    5
  end
  else begin
    Fmt.pr "fuzz: %d episode(s), zero invariant violations@." episodes;
    0
  end

(* ------------------------------------------------------------------ *)
(* Multi-tenant rack: N tenant runtimes interleaved over shared memory
   nodes with WFQ'd ingress bandwidth, per-tenant quotas and a
   cross-tenant shared segment (see lib/rack).  The rack is one scenario
   spec line, which Episode runs under the invariant registry. *)

module Rack = Kona_rack.Rack
module Shm_rpc = Kona_shmem.Shm_rpc

let print_rack_report (setup : Scn.setup) (r : Rack.result) rpc =
  Fmt.pr "rack: %d tenant(s), %d node(s) @@ %.2f Gbit/s ingress, smoke, %a@."
    setup.Scn.tenants setup.Scn.nodes setup.Scn.gbps Units.pp_ns
    r.Rack.r_elapsed_ns;
  Array.iter
    (fun (t : Rack.tenant_result) ->
      Fmt.pr
        "  %-22s share %d  %a  %d accesses  %a admitted  achieved %.3f \
         Gbit/s  queued %a  inval %d@."
        t.Rack.t_cfg.Rack.name t.Rack.t_cfg.Rack.bw_share Units.pp_ns
        t.Rack.t_elapsed_ns t.Rack.t_accesses Units.pp_bytes
        t.Rack.t_admitted_bytes t.Rack.t_achieved_gbps Units.pp_ns
        t.Rack.t_delay_ns t.Rack.t_invalidations)
    r.Rack.r_tenants;
  Fmt.pr
    "contention: %d/%d admits saturated; shared segment: %d writes, %d \
     reads, %d snoops, %d invalidations@."
    r.Rack.r_saturated_admits r.Rack.r_total_admits r.Rack.r_shared_writes
    r.Rack.r_shared_reads r.Rack.r_snoops r.Rack.r_invalidations_sent;
  if r.Rack.r_owner_changes > 0 then
    Fmt.pr
      "coherence: %d writer handoff(s), %d owner change(s), %d \
       invalidation(s)@."
      r.Rack.r_handoffs r.Rack.r_owner_changes r.Rack.r_coh_invalidations;
  (match rpc with
  | Some s ->
      Fmt.pr
        "shm-rpc: %d call(s) over coherent lines (%d+%d per call)  mean \
         %a/call  max %a  %d handoff(s)@."
        s.Shm_rpc.s_calls s.Shm_rpc.s_req_lines s.Shm_rpc.s_resp_lines
        Units.pp_ns (Shm_rpc.mean_ns s) Units.pp_ns s.Shm_rpc.s_max_ns
        s.Shm_rpc.s_handoffs
  | None -> ());
  Fmt.pr
    "placement: policy %s  %d migration(s) (%a moved, %d declined)  \
     remote-hit %d.%d%%  hot-hit %d.%d%%@."
    setup.Scn.policy r.Rack.r_migrations Units.pp_bytes r.Rack.r_bytes_moved
    r.Rack.r_failed_moves
    (r.Rack.r_remote_hit_pml / 10)
    (r.Rack.r_remote_hit_pml mod 10)
    (r.Rack.r_hot_hit_pml / 10)
    (r.Rack.r_hot_hit_pml mod 10);
  if r.Rack.r_ops_applied > 0 then
    Fmt.pr "ops: %d applied; drain re-homed %d page(s), %d failure(s)@."
      r.Rack.r_ops_applied r.Rack.r_drained_pages r.Rack.r_drain_failures;
  if r.Rack.r_node_crashes > 0 then
    Fmt.pr "faults: %d node crash(es) handled@." r.Rack.r_node_crashes;
  Array.iter
    (fun (t : Rack.tenant_result) ->
      if t.Rack.t_mismatches > 0 then
        Fmt.pr "integrity: %s: %d PAGES DIVERGED@." t.Rack.t_cfg.Rack.name
          t.Rack.t_mismatches;
      if t.Rack.t_lost_pages > 0 then
        Fmt.pr "integrity: %s: %d page(s) unreachable on crashed nodes@."
          t.Rack.t_cfg.Rack.name t.Rack.t_lost_pages;
      match t.Rack.t_degraded with
      | Some reason -> Fmt.pr "degraded: %s: %s@." t.Rack.t_cfg.Rack.name reason
      | None -> ())
    r.Rack.r_tenants

let rack_json (setup : Scn.setup) (r : Rack.result) rpc =
  let tenant_doc (t : Rack.tenant_result) =
    Json.Obj
      [
        ("name", Json.String t.Rack.t_cfg.Rack.name);
        ("workload", Json.String t.Rack.t_cfg.Rack.workload);
        ("bw_share", Json.Int t.Rack.t_cfg.Rack.bw_share);
        ( "mem_quota",
          match t.Rack.t_cfg.Rack.mem_quota with
          | Some b -> Json.Int b
          | None -> Json.Null );
        ("seed", Json.Int t.Rack.t_cfg.Rack.seed);
        ("accesses", Json.Int t.Rack.t_accesses);
        ("elapsed_ns", Json.Int t.Rack.t_elapsed_ns);
        ("admitted_bytes", Json.Int t.Rack.t_admitted_bytes);
        ("contended_bytes", Json.Int t.Rack.t_contended_bytes);
        ("delay_ns", Json.Int t.Rack.t_delay_ns);
        ("achieved_gbps", Json.Float t.Rack.t_achieved_gbps);
        ("invalidations", Json.Int t.Rack.t_invalidations);
        ("mismatches", Json.Int t.Rack.t_mismatches);
        ( "degraded",
          match t.Rack.t_degraded with
          | Some s -> Json.String s
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "kona.rack.v1");
      ("scale", Json.String "smoke");
      ("seed", Json.Int setup.Scn.seed);
      ("nodes", Json.Int setup.Scn.nodes);
      ("node_gbps", Json.Float setup.Scn.gbps);
      ("total_admits", Json.Int r.Rack.r_total_admits);
      ("saturated_admits", Json.Int r.Rack.r_saturated_admits);
      ("snoops", Json.Int r.Rack.r_snoops);
      ("invalidations_sent", Json.Int r.Rack.r_invalidations_sent);
      ("shared_writers", Json.Int setup.Scn.writers);
      ("handoffs", Json.Int r.Rack.r_handoffs);
      ("owner_changes", Json.Int r.Rack.r_owner_changes);
      ("coherence_invalidations", Json.Int r.Rack.r_coh_invalidations);
      ( "shm_rpc",
        match rpc with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("calls", Json.Int s.Shm_rpc.s_calls);
                ("total_ns", Json.Int s.Shm_rpc.s_total_ns);
                ("mean_ns", Json.Int (Shm_rpc.mean_ns s));
                ("max_ns", Json.Int s.Shm_rpc.s_max_ns);
                ("req_lines", Json.Int s.Shm_rpc.s_req_lines);
                ("resp_lines", Json.Int s.Shm_rpc.s_resp_lines);
                ("handoffs", Json.Int s.Shm_rpc.s_handoffs);
                ("invalidations", Json.Int s.Shm_rpc.s_invalidations);
              ] );
      ("policy", Json.String setup.Scn.policy);
      ("migrations", Json.Int r.Rack.r_migrations);
      ("bytes_moved", Json.Int r.Rack.r_bytes_moved);
      ("failed_moves", Json.Int r.Rack.r_failed_moves);
      ("migrator_delay_ns", Json.Int r.Rack.r_migrator_delay_ns);
      ("fetches", Json.Int r.Rack.r_fetches);
      ("fetches_fast", Json.Int r.Rack.r_fetches_fast);
      ("remote_hit_pml", Json.Int r.Rack.r_remote_hit_pml);
      ("hot_hit_pml", Json.Int r.Rack.r_hot_hit_pml);
      ("drained_pages", Json.Int r.Rack.r_drained_pages);
      ("drain_failures", Json.Int r.Rack.r_drain_failures);
      ("ops_applied", Json.Int r.Rack.r_ops_applied);
      ( "tenants",
        Json.List (Array.to_list (Array.map tenant_doc r.Rack.r_tenants)) );
      ("metrics", Snapshot.to_json r.Rack.r_snapshot);
    ]

(* [--repro-check]: run the spec again and compare everything a re-run
   must reproduce — every tenant's fingerprint, tenant 0's integrity
   counters and the shm-RPC ring's stats.  Prints the verdict. *)
let reproduces spec (o : Episode.outcome) =
  let o2 = Episode.execute spec in
  let same =
    o2.Episode.oc_fingerprint = o.Episode.oc_fingerprint
    && o2.Episode.oc_integrity = o.Episode.oc_integrity
    && o2.Episode.oc_shm_rpc = o.Episode.oc_shm_rpc
  in
  if same then
    Fmt.pr "repro: per-tenant counters bit-identical across re-run, \
            fingerprint %s@."
      (match o.Episode.oc_fingerprint with "" -> "-" | f -> f)
  else Fmt.pr "repro: FAIL: re-run changed per-tenant counters@.";
  same

(* Exit precedence: 3 abort, 1 divergence, repro mismatch or a spec that
   does not parse or that the rack rejects, 5 invariant violation, 4
   drain incomplete, 2 degraded, 0. *)
let cmd_rack line metrics_json repro_check =
  match Scn.parse line with
  | Error msg ->
      Fmt.epr "bad scenario spec: %s@." msg;
      1
  | Ok spec -> (
      let repro_failed o = repro_check && not (reproduces spec o) in
      match Episode.execute spec with
      | exception Invalid_argument msg ->
          Fmt.epr "%s@." msg;
          1
      | { Episode.oc_aborted = Some why; _ } ->
          (* an abort stops the run: nothing softer is reported *)
          Fmt.epr "aborted: %s@." why;
          3
      | { Episode.oc_result = None; _ } as o ->
          (* a boundary invariant stopped the run before its end *)
          print_violations o;
          if repro_failed o then 1 else 5
      | { Episode.oc_result = Some r; _ } as o ->
          let rpc = o.Episode.oc_shm_rpc in
          print_rack_report spec.Scn.setup r rpc;
          let diverged =
            Array.exists
              (fun (t : Rack.tenant_result) -> t.Rack.t_mismatches > 0)
              r.Rack.r_tenants
          in
          if not diverged then
            Fmt.pr "integrity: remote memory matches every tenant's view@.";
          print_violations o;
          let repro_failed = repro_failed o in
          (match metrics_json with
          | None -> ()
          | Some path ->
              write_json ~verb:"metrics" path (rack_json spec.Scn.setup r rpc));
          if diverged || repro_failed then 1
          else if o.Episode.oc_violations <> [] then 5
          else if r.Rack.r_drain_failures > 0 then begin
            Fmt.pr "ops: DRAIN INCOMPLETE: %d page(s) not re-homed@."
              r.Rack.r_drain_failures;
            4
          end
          else if
            Array.exists
              (fun (t : Rack.tenant_result) -> t.Rack.t_degraded <> None)
              r.Rack.r_tenants
          then 2
          else 0)

(* ------------------------------------------------------------------ *)

let cmd_record workload out seed full =
  let scale = scale_of full in
  let spec = match specs_of (Some workload) with [ s ] -> s | _ -> assert false in
  let sink, close = Kona_trace.Trace_file.writer ~path:out in
  let heap =
    Heap.create ~capacity:(spec.Workloads.heap_capacity scale) ~sink ()
  in
  spec.Workloads.run scale ~heap ~seed;
  let events = close () in
  Fmt.pr "recorded %d events from %s to %s@." events spec.Workloads.name out;
  0

let cmd_replay input quantum =
  let amp = Amp.create () in
  let fp = Kona_trace.Footprint.create () in
  let inner = Kona_trace.Access.Tap.tee [ Amp.sink amp; Kona_trace.Footprint.sink fp ] in
  let w =
    Window.create ~quantum ~inner ~on_boundary:(fun ~window ->
        Amp.close_window amp ~window;
        Kona_trace.Footprint.close_window fp ~window)
  in
  let events = Kona_trace.Trace_file.iter ~path:input (Window.sink w) in
  Window.flush w;
  let a = Amp.aggregate ~drop_last:true amp in
  Fmt.pr "replayed %d events (%d windows of %d accesses)@." events
    (List.length (Amp.windows amp))
    quantum;
  Fmt.pr "amplification: 4K=%.2f 2M=%.2f CL=%.2f (unique bytes written: %d)@."
    a.Amp.agg_amp_page a.Amp.agg_amp_huge a.Amp.agg_amp_line
    a.Amp.total_written_bytes;
  let cdf = Kona_trace.Footprint.lines_per_page_cdf fp ~kind:Kona_trace.Access.Write in
  if Kona_util.Cdf.count cdf > 0 then
    Fmt.pr "written lines/page: mean %.1f, P(<=8)=%.2f@." (Kona_util.Cdf.mean cdf)
      (Kona_util.Cdf.at cdf 8);
  0

(* ------------------------------------------------------------------ *)

open Cmdliner

let workload_opt =
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~doc:"workload name")

let workload_req =
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc:"workload name")

let full = Arg.(value & flag & info [ "full" ] ~doc:"bench-sized run (default: smoke)")

let system =
  Arg.(
    value
    & opt string "kona,kona-vm"
    & info [ "system" ]
        ~doc:"comma-separated subset of kona | kona-vm | legoos | infiniswap")

let fmem_pages =
  Arg.(value & opt int 1024 & info [ "fmem-pages" ] ~doc:"local cache frames")

let replicas =
  Arg.(value & opt int 0 & info [ "replicas" ] ~doc:"eviction replication degree (kona only)")

let prefetch =
  Arg.(value & flag & info [ "prefetch" ] ~doc:"enable stream prefetching (kona only)")

let sq_depth =
  Arg.(
    value
    & opt (some int) None
    & info [ "sq-depth" ]
        ~doc:"bound RDMA send queues to $(docv) outstanding WQEs (default: unbounded)"
        ~docv:"N")

let signal_interval =
  Arg.(
    value
    & opt int 1
    & info [ "signal-interval" ]
        ~doc:"selective signaling: raise a completion every $(docv)th WQE on \
              background queue pairs (default 1 = every WQE)"
        ~docv:"N")

let fault_spec =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "inject faults (kona only): ';'-separated clauses of \
           $(b,kind[@time][:key=value,...]).  Kinds: $(b,node-crash@T:id=N), \
           $(b,link-flap@T:dur=D), $(b,partition@T:dur=D,nodes=A|B), \
           $(b,rpc-timeout:p=P), $(b,wqe-drop:p=P), \
           $(b,wqe-delay:p=P,ns=D), $(b,bit-flip:p=P), $(b,torn-write:p=P), \
           $(b,stale-read:p=P), $(b,dup-deliver:p=P).  Times/durations take \
           ns/us/ms/s suffixes, e.g. 'node-crash@2ms:id=1;bit-flip:p=0.1'")

let fault_seed =
  Arg.(
    value
    & opt int 42
    & info [ "fault-seed" ]
        ~doc:"fault-injector RNG seed (same seed + spec => identical faults)")

let check_replicas =
  Arg.(
    value & flag
    & info [ "check-replicas" ]
        ~doc:
          "debug invariant (kona only): verify replicas are byte-identical \
           to their primary after every eviction batch")

let scrub_interval_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "scrub-interval" ] ~docv:"NS"
        ~doc:
          "kona only: background scrub-and-repair sweep period in virtual \
           nanoseconds — walk every backed page's at-rest checksums and \
           repair corrupt lines from live replicas (default: off)")

let verify_checksums =
  Arg.(
    value & flag
    & info [ "verify-checksums" ]
        ~doc:
          "kona only: verify per-cache-line checksums of the remote page on \
           every synchronous demand fetch (stale reads are detected and \
           re-read)")

let retry_max_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "retry-max" ] ~docv:"N"
        ~doc:
          "unified retry budget: cap both QP retransmissions and RPC \
           resends at $(docv) attempts (default: layer defaults, 7 and 5)")

let backoff_base_ns_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "backoff-base-ns" ] ~docv:"NS"
        ~doc:
          "first retry backoff step in virtual nanoseconds, doubled per \
           attempt up to the cap, for every resending layer (default 8000)")

let heartbeat_ns_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "heartbeat-ns" ] ~docv:"NS"
        ~doc:
          "kona only: lease-based membership — memory nodes heartbeat the \
           failure detector every $(docv) virtual nanoseconds, and failover \
           is triggered by lease expiry (default: off — no leases, crashes \
           are detected instantly; both detectors feed one recovery queue)")

let lease_ns_opt =
  Arg.(
    value
    & opt int Runtime.default_config.Runtime.lease_ns
    & info [ "lease-ns" ] ~docv:"NS"
        ~doc:
          "membership lease duration: a node is suspected when its last \
           heartbeat is older than $(docv) and declared dead at twice that \
           age; meaningful only with $(b,--heartbeat-ns) (default 200000)")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"workload RNG seed")

let fuzz_episodes =
  Arg.(
    value & opt int 10
    & info [ "episodes" ] ~doc:"number of generated scenario episodes")

let fuzz_ops =
  Arg.(
    value & opt int 12
    & info [ "ops" ] ~doc:"ops per generated episode (before shrinking)")

let fuzz_repro_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-out" ] ~docv:"PATH"
        ~doc:
          "write each failing episode's minimal repro spec (one per line, \
           shrunk by delta debugging) for 'konactl rack --repro-check'")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "export the results as one JSON document: every system's \
           telemetry snapshot ($(b,run), $(b,stats)), the rack report \
           ($(b,rack)) or the episode report ($(b,fuzz), $(b,soak))")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "export the event-trace ring as JSON lines (per-system suffix added \
           when several systems run)")

let out_path =
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~doc:"output trace file")

let in_path =
  Arg.(required & opt (some string) None & info [ "i"; "in" ] ~doc:"input trace file")

let quantum =
  Arg.(value & opt int 20_000 & info [ "quantum" ] ~doc:"window size in accesses")

let rack_spec =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:
          "one scenario spec line: a $(b,setup:) clause (tenants, nodes, \
           workloads, shares, quotas, policy, shared segment, seeds, ...) \
           followed by ';'-separated ops and timed fault and rack-op \
           clauses, e.g. \
           'setup:tenants=2,nodes=3,fmem=64,replicas=0,seed=7,scrub=0ns,verify=0,workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256' \
           (the grammar is lib/scenario/spec.mli's; $(b,konactl fuzz) \
           prints one per episode)")

let rack_repro_check =
  Arg.(
    value & flag
    & info [ "repro-check" ]
        ~doc:
          "run the spec twice and fail (exit 1) unless every tenant's \
           telemetry fingerprint, tenant 0's integrity counters and the \
           shm-RPC stats are bit-identical")

let run_term print =
  Term.(
    const (cmd_run print) $ workload_req $ system $ fmem_pages $ replicas
    $ prefetch $ sq_depth $ signal_interval $ fault_spec $ fault_seed
    $ check_replicas $ scrub_interval_opt $ verify_checksums $ retry_max_opt
    $ backoff_base_ns_opt $ heartbeat_ns_opt $ lease_ns_opt $ seed
    $ metrics_json $ trace_out $ full)

let fuzz_term generate =
  Term.(
    const (cmd_fuzz generate) $ fuzz_episodes $ fuzz_ops $ seed
    $ fuzz_repro_out $ metrics_json)

let cmds =
  [
    Cmd.v (Cmd.info "workloads" ~doc:"list Table 2 workloads")
      Term.(const cmd_workloads $ const ());
    Cmd.v (Cmd.info "record" ~doc:"record a workload's access trace to a file")
      Term.(const cmd_record $ workload_req $ out_path $ seed $ full);
    Cmd.v (Cmd.info "replay" ~doc:"replay a trace file through the analyses")
      Term.(const cmd_replay $ in_path $ quantum);
    Cmd.v (Cmd.info "amp" ~doc:"dirty-data amplification (Table 2)")
      Term.(const cmd_amp $ workload_opt $ seed $ full);
    Cmd.v (Cmd.info "run" ~doc:"run a workload on remote-memory runtimes")
      (run_term print_run);
    Cmd.v
      (Cmd.info "stats"
         ~doc:"run a workload and print the full telemetry table per system")
      (run_term print_stats);
    Cmd.v
      (Cmd.info "rack"
         ~doc:
           "multi-tenant rack simulation: run one scenario spec — N tenant \
            runtimes interleaved over shared memory nodes with \
            weighted-fair ingress bandwidth, per-tenant memory quotas and a \
            cross-tenant shared segment — under the invariant registry \
            (exit 3 abort, 1 divergence, repro mismatch or a rejected \
            spec, 5 invariant violation, 4 drain incomplete, 2 degraded)")
      Term.(const cmd_rack $ rack_spec $ metrics_json $ rack_repro_check);
    Cmd.v
      (Cmd.info "soak"
         ~doc:
           "chaos soak: $(b,fuzz) over the generator's corruption family \
            only — single-tenant episodes of bit flips, torn writes, \
            duplicate deliveries and stale reads with scrubbing, checked \
            against the invariant registry (shadow heap, integrity \
            accounting)")
      (fuzz_term (Scn_gen.generate_family Scn_gen.Corruption));
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "autonomous scenario fuzzing: seeded op sequences over the whole \
            public surface (run slices, crashes, flaps, corruption, quotas, \
            shared segments, scrubs, rack ops), checked against the \
            cross-subsystem invariant registry; failing episodes are \
            delta-debugged to minimal repro specs that $(b,konactl rack \
            --repro-check) reruns (exit 5 on violation)")
      (fuzz_term Scn_gen.generate);
  ]

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "konactl" ~doc:"Kona reproduction driver") cmds))
