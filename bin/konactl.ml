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
     konactl soak [--episodes N] [--seed S] [--metrics-json PATH]
                                       randomized corruption episodes vs the
                                       shadow-heap oracle; fail loudly on
                                       undetected corruption
     konactl fuzz [--episodes N] [--ops K] [--seed S] [--replay SPEC]
                  [--repro-out PATH] [--metrics-json PATH]
                                       seeded whole-surface scenario fuzzing
                                       against the cross-subsystem invariant
                                       registry; failures shrink to minimal
                                       replayable repro specs (exit 5) *)

open Kona
module Workloads = Kona_workloads.Workloads
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Amp = Kona_trace.Amplification
module Window = Kona_trace.Window
module Vm_runtime = Kona_baselines.Vm_runtime
module Backoff = Kona_util.Backoff
module Hub = Kona_telemetry.Hub
module Json = Kona_telemetry.Json
module Snapshot = Kona_telemetry.Snapshot

let scale_of full = if full then Workloads.Full else Workloads.Smoke
let scale_name full = if full then "full" else "smoke"

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

type run_result = {
  rr_system : string;
  rr_hub : Hub.t;
  rr_elapsed : int;
  rr_stats : (string * int) list;
  rr_footprint : int;
  rr_mismatches : int;
  rr_lost_pages : int;  (** backed pages on a crashed, un-failed-over node *)
  rr_degraded : string option;
}

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

(* Execute [spec] on one runtime with a fresh rack and its own telemetry
   hub; verifies remote-memory integrity after the final drain.  [faults]
   (kona only) is the injection plan: node crashes trigger failover when
   [replicas > 0], and integrity skips pages lost to un-failed-over
   crashed nodes, reporting them as degradation instead of divergence. *)
let run_one ~(spec : Workloads.spec) ~scale ~seed ~fmem_pages ~replicas
    ~prefetch ~sq_depth ~signal_interval ~faults ~fault_seed ~check_replicas
    ~scrub_interval ~verify_checksums ~backoff ~heartbeat_ns ~lease_ns system =
  let controller = Rack_controller.create ~slab_size:(Units.mib 1) () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 128));
  Rack_controller.register_node controller
    (Memory_node.create ~id:1 ~capacity:(Units.mib 128));
  let hub = Hub.create () in
  let heap_ref = ref None in
  let read_local ~addr ~len = Heap.peek_bytes (Option.get !heap_ref) addr len in
  let sink, elapsed, drain, stats, rm, degraded =
    match system with
    | "kona" ->
        let config =
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
        let rt = Runtime.create ~config ~hub ~controller ~read_local () in
        ( Runtime.sink rt,
          (fun () -> Runtime.elapsed_ns rt),
          (fun () -> Runtime.drain rt),
          (fun () -> Runtime.stats rt),
          Runtime.resource_manager rt,
          fun () -> Runtime.degraded rt )
    | ("kona-vm" | "legoos" | "infiniswap") as sys ->
        let cost = Cost_model.default in
        let profile =
          match sys with
          | "legoos" -> Vm_runtime.legoos_profile cost
          | "infiniswap" -> Vm_runtime.infiniswap_profile cost
          | _ -> Vm_runtime.kona_vm_profile cost Kona_rdma.Cost.default
        in
        let config =
          {
            Vm_runtime.default_config with
            cache_pages = fmem_pages;
            sq_depth;
            signal_interval;
            backoff;
          }
        in
        let vm = Vm_runtime.create ~config ~hub ~profile ~controller ~read_local () in
        ( Vm_runtime.sink vm,
          (fun () -> Vm_runtime.elapsed_ns vm),
          (fun () -> Vm_runtime.drain vm),
          (fun () -> Vm_runtime.stats vm),
          Vm_runtime.resource_manager vm,
          fun () -> None )
    | other ->
        Fmt.epr "unknown system %S (kona | kona-vm | legoos | infiniswap)@." other;
        exit 1
  in
  let heap =
    Heap.create ~capacity:(spec.Workloads.heap_capacity scale) ~sink ()
  in
  heap_ref := Some heap;
  spec.Workloads.run scale ~heap ~seed;
  drain ();
  let mismatches = ref 0 and lost_pages = ref 0 in
  Resource_manager.iter_backed_pages rm (fun ~vpage ~node ~remote_addr ->
      let base = vpage * Units.page_size in
      (* skip pages holding mmap'd (poked) input: clean by construction *)
      if base + Units.page_size <= Heap.capacity heap
         && not (Heap.page_poked heap ~page:vpage)
      then begin
        let local = Heap.peek_bytes heap base Units.page_size in
        match
          Memory_node.peek (Rack_controller.node controller ~id:node)
            ~addr:remote_addr ~len:Units.page_size
        with
        | remote -> if local <> remote then incr mismatches
        | exception Memory_node.Crashed _ ->
            (* crashed with no promoted replica: lost, not divergent *)
            incr lost_pages
      end);
  {
    rr_system = system;
    rr_hub = hub;
    rr_elapsed = elapsed ();
    rr_stats = stats ();
    rr_footprint = Heap.used heap;
    rr_mismatches = !mismatches;
    rr_lost_pages = !lost_pages;
    rr_degraded = degraded ();
  }

let systems_of s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  with
  | [] ->
      Fmt.epr "no system given (kona | kona-vm | legoos | infiniswap)@.";
      exit 1
  | l -> l

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
            Snapshot.document (Hub.snapshot r.rr_hub)
              ~meta:
                [
                  ("system", Json.String r.rr_system);
                  ("workload", Json.String spec.Workloads.name);
                  ("scale", Json.String (scale_name full));
                  ("seed", Json.Int seed);
                  ("elapsed_ns", Json.Int r.rr_elapsed);
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
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "metrics: wrote %s@." path);
  match trace with
  | None -> ()
  | Some path ->
      let single = List.length results = 1 in
      List.iter
        (fun r ->
          let p = per_system_path path r.rr_system ~single in
          let n = Hub.write_trace ~path:p r.rr_hub in
          Fmt.pr "trace: wrote %d events to %s@." n p)
        results

(* Exit status shared by run/stats: 1 on divergence (a real bug), 2 on a
   gracefully degraded run (data lost to an unrecovered fault — reported,
   not raised), 0 otherwise. *)
let report_faults r =
  (match r.rr_degraded with
  | Some reason -> Fmt.pr "degraded: %s@." reason
  | None -> ());
  if r.rr_lost_pages > 0 then
    Fmt.pr "integrity: %d page(s) unreachable on crashed nodes@." r.rr_lost_pages

let exit_status results =
  if List.exists (fun r -> r.rr_mismatches > 0) results then 1
  else if List.exists (fun r -> r.rr_degraded <> None) results then 2
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
  let results =
    List.map
      (run_one ~spec ~scale ~seed ~fmem_pages ~replicas ~prefetch ~sq_depth
         ~signal_interval ~faults ~fault_seed ~check_replicas ~scrub_interval
         ~verify_checksums ~backoff ~heartbeat_ns ~lease_ns)
      (systems_of systems)
  in
  List.iter
    (fun r ->
      print ~spec ~full ~seed r;
      report_faults r)
    results;
  export_results ~spec ~full ~seed ~metrics_json ~trace results;
  exit_status results

let print_run ~(spec : Workloads.spec) ~full:_ ~seed:_ r =
  Fmt.pr "%s on %s: %a virtual time, footprint %a@." spec.Workloads.name
    r.rr_system Units.pp_ns r.rr_elapsed Units.pp_bytes r.rr_footprint;
  List.iter (fun (k, v) -> Fmt.pr "  %-26s %d@." k v) r.rr_stats;
  Fmt.pr "integrity: %s@."
    (if r.rr_mismatches = 0 then "remote memory matches the heap"
     else Printf.sprintf "%d PAGES DIVERGED" r.rr_mismatches)

let print_stats ~(spec : Workloads.spec) ~full ~seed r =
  Fmt.pr "== %s on %s (%s, seed %d): %a ==@." spec.Workloads.name
    r.rr_system (scale_name full) seed Units.pp_ns r.rr_elapsed;
  Fmt.pr "%a@." Snapshot.pp_table (Hub.snapshot r.rr_hub)

(* ------------------------------------------------------------------ *)
(* Chaos soak: N randomized corruption episodes against the shadow-heap
   oracle, driven through the scenario engine (lib/scenario).  Every
   episode draws a crash-free corruption plan (bit flips, torn writes,
   stale reads, duplicated deliveries) from the master seed, renders it
   as a one-line scenario spec whose clauses are armed up front, and
   checks the registry's shadow-heap and integrity-accounting invariants
   plus reproducibility (re-running the same spec yields bit-for-bit
   identical integrity counters).  The kona.soak.v1 report shape is
   unchanged from the pre-scenario harness. *)

module Rng = Kona_util.Rng
module Fault_spec = Kona_faults.Fault_spec
module Scn = Kona_scenario.Spec
module Scn_gen = Kona_scenario.Gen
module Episode = Kona_scenario.Episode
module Invariants = Kona_scenario.Invariants
module Shrink = Kona_scenario.Shrink

(* One crash-free corruption plan: a random non-empty subset of the
   probabilistic kinds.  Node crashes are deliberately excluded:
   re-replication after failover heals corruption outside the detection
   paths this harness is auditing.  (No episode is special-cased;
   detection coverage across a seeded batch is asserted by CI over the
   whole kona.soak.v1 report.) *)
let soak_plan rng =
  let p lo hi = lo +. Rng.float rng (hi -. lo) in
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  if Rng.bool rng then add (Printf.sprintf "bit-flip:p=%.4f" (p 0.05 0.3));
  if Rng.bool rng then add (Printf.sprintf "torn-write:p=%.4f" (p 0.05 0.3));
  if Rng.bool rng then add (Printf.sprintf "dup-deliver:p=%.4f" (p 0.05 0.3));
  if Rng.bool rng then add (Printf.sprintf "stale-read:p=%.4f" (p 0.02 0.1));
  if !clauses = [] then add (Printf.sprintf "torn-write:p=%.4f" (p 0.05 0.3));
  String.concat ";" (List.rev !clauses)

(* The soak setup as a scenario: one tenant on 2 x 128 MiB nodes, one
   replica, a small cache (more eviction traffic to corrupt), on-fetch
   verification and a background scrubber — all Scenario defaults — with
   the plan's clauses armed before the replay starts. *)
let soak_spec ~workload ~plan_str ~fault_seed ~seed ~scrub_interval =
  let plan =
    match Fault_spec.parse plan_str with
    | Ok p -> p
    | Error msg ->
        Fmt.epr "internal: bad soak plan %S: %s@." plan_str msg;
        exit 1
  in
  {
    Scn.setup =
      {
        Scn.default_setup with
        Scn.workloads = [ workload ];
        seed;
        fault_seed;
        scrub_ns = scrub_interval;
      };
    ops = List.map (fun c -> Scn.Corrupt c) plan;
  }

let soak_failures (o : Episode.outcome) =
  List.map
    (fun v -> Printf.sprintf "%s: %s" v.Invariants.inv v.Invariants.detail)
    o.Episode.oc_violations
  @
  match o.Episode.oc_aborted with
  | Some a -> [ Printf.sprintf "episode aborted: %s" a ]
  | None -> []

let cmd_soak workload episodes master_seed scrub_interval repro_check
    metrics_json =
  let spec =
    match specs_of (Some workload) with [ s ] -> s | _ -> assert false
  in
  let rng = Rng.create ~seed:master_seed in
  let failed = ref false in
  let docs = ref [] in
  for episode = 0 to episodes - 1 do
    let plan_str = soak_plan rng in
    let fault_seed = Rng.int rng 1_000_000 in
    let seed = Rng.int rng 1_000_000 in
    Fmt.pr "episode %d: plan [%s] fault-seed %d seed %d@." episode plan_str
      fault_seed seed;
    let scenario =
      soak_spec ~workload:spec.Workloads.name ~plan_str ~fault_seed ~seed
        ~scrub_interval
    in
    let o = Episode.execute scenario in
    let failures = soak_failures o in
    List.iter
      (fun (k, v) -> if v <> 0 then Fmt.pr "  %-28s %d@." k v)
      o.Episode.oc_integrity;
    (match o.Episode.oc_degraded with
    | Some r -> Fmt.pr "  degraded (detected, declared): %s@." r
    | None -> ());
    if o.Episode.oc_unrepairable > 0 then
      Fmt.pr "  unrepairable pages excluded from oracle: %d@."
        o.Episode.oc_unrepairable;
    (match failures with
    | [] ->
        Fmt.pr "  PASS: zero shadow-heap divergence, all injections accounted@."
    | fs ->
        failed := true;
        List.iter (fun f -> Fmt.pr "  FAIL: %s@." f) fs);
    if repro_check then begin
      let o2 = Episode.execute scenario in
      if
        o2.Episode.oc_integrity <> o.Episode.oc_integrity
        || o2.Episode.oc_fingerprint <> o.Episode.oc_fingerprint
      then begin
        failed := true;
        Fmt.pr
          "  FAIL: re-run of the same (plan, seed) changed integrity counters@."
      end
      else Fmt.pr "  repro: integrity counters identical across re-run@."
    end;
    docs :=
      Json.Obj
        [
          ("episode", Json.Int episode);
          ("plan", Json.String plan_str);
          ("fault_seed", Json.Int fault_seed);
          ("workload_seed", Json.Int seed);
          ("divergent_pages", Json.Int o.Episode.oc_divergent);
          ("unrepairable_pages", Json.Int o.Episode.oc_unrepairable);
          ("failures", Json.List (List.map (fun f -> Json.String f) failures));
          ( "integrity",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Int v)) o.Episode.oc_integrity)
          );
          ( "injected",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Int v)) o.Episode.oc_injected)
          );
        ]
      :: !docs
  done;
  (match metrics_json with
  | None -> ()
  | Some path ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "kona.soak.v1");
            ("workload", Json.String spec.Workloads.name);
            ("master_seed", Json.Int master_seed);
            ("passed", Json.Bool (not !failed));
            ("episodes", Json.List (List.rev !docs));
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "soak: wrote %s@." path);
  if !failed then begin
    Fmt.pr "soak: FAILED@.";
    1
  end
  else begin
    Fmt.pr "soak: %d episode(s) passed@." episodes;
    0
  end

(* ------------------------------------------------------------------ *)
(* Autonomous scenario fuzzing (lib/scenario): seeded op sequences over
   the whole public surface — run slices, crashes, link flaps, corruption
   clauses, quota changes, shared-segment publish/map traffic, scrub
   sweeps, node adds/drains, rebalances and migration epochs — checked
   against the cross-subsystem invariant registry at every op boundary
   and at episode end.  Every episode is one replayable spec line;
   failures are delta-debugged to minimal repro specs.  Exit 5 = a named
   invariant was violated; exit 1 = replay fingerprint mismatch. *)

let first_violation_name spec ~check_end =
  match (Episode.execute ~check_end spec).Episode.oc_violations with
  | [] -> None
  | v :: _ -> Some v.Invariants.inv

let cmd_fuzz episodes ops master_seed replay repro_out metrics_json =
  match replay with
  | Some line -> (
      match Scn.parse line with
      | Error msg ->
          Fmt.epr "bad scenario spec: %s@." msg;
          1
      | Ok spec ->
          let o = Episode.execute spec in
          let o2 = Episode.execute spec in
          List.iter
            (fun v ->
              Fmt.pr "violation [%s] %s@." v.Invariants.inv v.Invariants.detail)
            o.Episode.oc_violations;
          (match o.Episode.oc_aborted with
          | Some a -> Fmt.pr "aborted: %s@." a
          | None -> ());
          if
            o.Episode.oc_fingerprint <> o2.Episode.oc_fingerprint
            || o.Episode.oc_integrity <> o2.Episode.oc_integrity
          then begin
            Fmt.pr
              "replay: FAILED — two runs of the same spec diverged (broken \
               determinism)@.";
            1
          end
          else if o.Episode.oc_violations <> [] then begin
            Fmt.pr "replay: reproduced the invariant violation@.";
            5
          end
          else begin
            Fmt.pr "replay: PASS fingerprint %s@." o.Episode.oc_fingerprint;
            0
          end)
  | None ->
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
        let spec = Scn_gen.generate ~seed:ep_seed ~ops in
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
          let oc = open_out path in
          output_string oc (Json.to_string doc);
          output_char oc '\n';
          close_out oc;
          Fmt.pr "fuzz: wrote %s@." path);
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
   cross-tenant shared segment (see lib/rack). *)

module Rack = Kona_rack.Rack
module Shm_rpc = Kona_shmem.Shm_rpc

let parse_list ~what ~parse s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map (fun x ->
         try parse x
         with _ ->
           Fmt.epr "bad %s element %S@." what x;
           exit 1)

let nth_cyclic l i default =
  match l with [] -> default | _ -> List.nth l (i mod List.length l)

let cmd_rack tenants_n workloads bw_shares mem_quotas nodes node_cap node_gbps
    shared_pages shared_ops shared_writers shm_rpc_calls quantum policy
    fast_nodes slow_extra_ns rack_ops rack_fmem_pages replicas fault_spec
    fault_seed retry_max backoff_base_ns heartbeat_ns lease_ns seed full
    metrics_json repro_check =
  if tenants_n < 1 then begin
    Fmt.epr "--tenants must be >= 1@.";
    exit 1
  end;
  let scale = scale_of full in
  let slugs = parse_list ~what:"workload" ~parse:(fun x -> x) workloads in
  let shares = parse_list ~what:"--bw-share" ~parse:int_of_string bw_shares in
  let quotas =
    match mem_quotas with
    | None -> []
    | Some s -> parse_list ~what:"--mem-quota" ~parse:int_of_string s
  in
  let ops =
    match Kona_rack.Rack_ops.parse rack_ops with
    | Ok ops -> ops
    | Error msg ->
        Fmt.epr "bad --rack-ops: %s@." msg;
        exit 1
  in
  let tenant_cfgs =
    List.init tenants_n (fun i ->
        let slug = nth_cyclic slugs i "kv-uniform" in
        {
          Rack.name = Printf.sprintf "t%d-%s" i slug;
          workload = slug;
          bw_share = nth_cyclic shares i 1;
          mem_quota =
            (match nth_cyclic quotas i 0 with 0 -> None | b -> Some b);
          seed = seed + i;
        })
  in
  let runtime =
    let base = Rack.default_config.Rack.runtime in
    {
      base with
      Runtime.fmem_pages =
        (if rack_fmem_pages > 0 then rack_fmem_pages
         else base.Runtime.fmem_pages);
      backoff = backoff_of ~retry_max ~backoff_base_ns;
      (* honoured on tenant 0 only — one membership authority per rack *)
      heartbeat_ns;
      lease_ns;
    }
  in
  let cfg =
    {
      Rack.scale;
      nodes;
      node_capacity =
        (if node_cap > 0 then node_cap
         else Rack.default_config.Rack.node_capacity);
      node_gbps;
      replicas;
      faults = parse_fault_spec fault_spec;
      fault_seed;
      shared_pages;
      shared_ops;
      shared_writers;
      quantum;
      policy;
      fast_nodes;
      slow_extra_ns;
      ops;
      runtime;
    }
  in
  (* --shm-rpc rides the same engine after replay: the ring's coherent
     line traffic lands on the drained-but-live fabric, so its telemetry
     folds into the run's fingerprints (and the repro re-run's). *)
  let run_once () =
    let e = Rack.start cfg tenant_cfgs in
    while Rack.step e > 0 do
      ()
    done;
    let rpc =
      if shm_rpc_calls > 0 && tenants_n >= 2 then
        Some (Shm_rpc.run e ~client:1 ~server:0 ~calls:shm_rpc_calls ())
      else None
    in
    (Rack.finish e, rpc)
  in
  (* unknown slugs exit here with the 'konactl workloads' hint; any other
     configuration error surfaces below as its own message *)
  List.iter (fun tc -> ignore (specs_of (Some tc.Rack.workload))) tenant_cfgs;
  match run_once () with
  | exception Invalid_argument msg ->
      Fmt.epr "%s@." msg;
      1
  | exception Rack_controller.Quota_exceeded q ->
      Fmt.epr
        "quota exceeded: tenant %s requested %a with %a of its %a cap used@."
        q.tenant Units.pp_bytes q.requested Units.pp_bytes q.used
        Units.pp_bytes q.quota;
      3
  | r, rpc ->
      Fmt.pr "rack: %d tenant(s), %d node(s) @ %.2f Gbit/s ingress, %s, %a@."
        tenants_n nodes node_gbps (scale_name full) Units.pp_ns r.Rack.r_elapsed_ns;
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
        r.Rack.r_policy r.Rack.r_migrations Units.pp_bytes r.Rack.r_bytes_moved
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
      let mismatches = ref 0 in
      Array.iter
        (fun (t : Rack.tenant_result) ->
          mismatches := !mismatches + t.Rack.t_mismatches;
          if t.Rack.t_mismatches > 0 then
            Fmt.pr "integrity: %s: %d PAGES DIVERGED@." t.Rack.t_cfg.Rack.name
              t.Rack.t_mismatches;
          if t.Rack.t_lost_pages > 0 then
            Fmt.pr "integrity: %s: %d page(s) unreachable on crashed nodes@."
              t.Rack.t_cfg.Rack.name t.Rack.t_lost_pages;
          match t.Rack.t_degraded with
          | Some reason -> Fmt.pr "degraded: %s: %s@." t.Rack.t_cfg.Rack.name reason
          | None -> ())
        r.Rack.r_tenants;
      if !mismatches = 0 then
        Fmt.pr "integrity: remote memory matches every tenant's view@.";
      let repro_failed = ref false in
      if repro_check then begin
        let r2, rpc2 = run_once () in
        let same =
          Array.for_all2
            (fun (a : Rack.tenant_result) (b : Rack.tenant_result) ->
              a.Rack.t_fingerprint = b.Rack.t_fingerprint)
            r.Rack.r_tenants r2.Rack.r_tenants
          && rpc = rpc2
        in
        if same then
          Fmt.pr "repro: per-tenant counters bit-identical across re-run@."
        else begin
          repro_failed := true;
          Fmt.pr "repro: FAIL: re-run changed per-tenant counters@."
        end
      end;
      (match metrics_json with
      | None -> ()
      | Some path ->
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
          let doc =
            Json.Obj
              [
                ("schema", Json.String "kona.rack.v1");
                ("scale", Json.String (scale_name full));
                ("seed", Json.Int seed);
                ("nodes", Json.Int nodes);
                ("node_gbps", Json.Float node_gbps);
                ("total_admits", Json.Int r.Rack.r_total_admits);
                ("saturated_admits", Json.Int r.Rack.r_saturated_admits);
                ("snoops", Json.Int r.Rack.r_snoops);
                ("invalidations_sent", Json.Int r.Rack.r_invalidations_sent);
                ("shared_writers", Json.Int shared_writers);
                ("handoffs", Json.Int r.Rack.r_handoffs);
                ("owner_changes", Json.Int r.Rack.r_owner_changes);
                ( "coherence_invalidations",
                  Json.Int r.Rack.r_coh_invalidations );
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
                          ( "invalidations",
                            Json.Int s.Shm_rpc.s_invalidations );
                        ] );
                ("policy", Json.String r.Rack.r_policy);
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
          in
          let oc = open_out path in
          output_string oc (Json.to_string doc);
          output_char oc '\n';
          close_out oc;
          Fmt.pr "metrics: wrote %s@." path);
      if !mismatches > 0 || !repro_failed then 1
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
      else 0

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

let soak_workload =
  Arg.(
    value
    & opt string "redis-rand"
    & info [ "w"; "workload" ] ~doc:"workload driven during each episode")

let episodes =
  Arg.(
    value & opt int 3
    & info [ "episodes" ] ~doc:"number of randomized corruption episodes")

let soak_scrub_interval =
  Arg.(
    value & opt int 200_000
    & info [ "scrub-interval" ] ~docv:"NS"
        ~doc:"scrub sweep period in virtual nanoseconds")

let repro_check =
  Arg.(
    value & opt bool true
    & info [ "repro-check" ]
        ~doc:
          "re-run every episode with the same (plan, seed) and fail unless \
           the integrity counters are bit-for-bit identical")

let fuzz_episodes =
  Arg.(
    value & opt int 10
    & info [ "episodes" ] ~doc:"number of generated scenario episodes")

let fuzz_ops =
  Arg.(
    value & opt int 12
    & info [ "ops" ] ~doc:"ops per generated episode (before shrinking)")

let fuzz_replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SPEC"
        ~doc:
          "instead of generating, execute this scenario spec twice and fail \
           (exit 1) unless both runs produce bit-identical telemetry \
           fingerprints; a reproduced invariant violation exits 5")

let fuzz_repro_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-out" ] ~docv:"PATH"
        ~doc:
          "write each failing episode's minimal repro spec (one per line, \
           shrunk by delta debugging) for 'konactl fuzz --replay'")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:"export the telemetry snapshot of every system run as one JSON document")

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

let rack_tenants =
  Arg.(value & opt int 2 & info [ "tenants" ] ~doc:"number of tenant runtimes")

let rack_workloads =
  Arg.(
    value
    & opt string "kv-uniform,page-rank"
    & info [ "w"; "workloads" ]
        ~doc:
          "comma-separated workload slugs, assigned round-robin to tenants \
           (see 'konactl workloads')")

let rack_bw_shares =
  Arg.(
    value & opt string "1"
    & info [ "bw-share" ]
        ~doc:
          "comma-separated WFQ weights, assigned round-robin: tenant i gets \
           share_i of every saturated node's ingress bandwidth")

let rack_mem_quotas =
  Arg.(
    value
    & opt (some string) None
    & info [ "mem-quota" ]
        ~doc:
          "comma-separated per-tenant slab-allocation caps in bytes (0 = \
           unmetered); exceeding a cap fails with the named Quota_exceeded \
           error (exit 3)")

let rack_nodes =
  Arg.(value & opt int 2 & info [ "nodes" ] ~doc:"memory nodes in the rack")

let rack_node_cap =
  Arg.(
    value & opt int 0
    & info [ "node-cap" ]
        ~doc:
          "per-node capacity in bytes (0 = 128 MiB default); small values \
           create the capacity pressure that spreads allocations across \
           tiers")

let rack_node_gbps =
  Arg.(
    value & opt float 1.0
    & info [ "node-gbps" ]
        ~doc:"per-node ingress link rate in Gbit/s (WFQ wire time)")

let rack_shared_pages =
  Arg.(
    value & opt int 64
    & info [ "shared-pages" ]
        ~doc:"pages in tenant 0's published read-mostly segment (0 = off)")

let rack_shared_ops =
  Arg.(
    value & opt int 256
    & info [ "shared-ops" ]
        ~doc:
          "synthetic shared-segment ops woven into each tenant's replay \
           (tenant 0 writes, the rest read)")

let rack_shared_writers =
  Arg.(
    value & opt int 1
    & info [ "shared-writers" ]
        ~doc:
          "tenants allowed to write the shared segment (woven op k's \
           writer is tenant k mod N); > 1 routes shared traffic through \
           the per-line MSI directory with writer handoff and RFO \
           invalidations priced through the contended links")

let rack_shm_rpc =
  Arg.(
    value
    & opt ~vopt:64 int 0
    & info [ "shm-rpc" ]
        ~doc:
          "after replay, run $(docv) shared-memory RPC calls between \
           tenant 1 (client) and tenant 0 (server) over coherent lines of \
           the shared segment (head/tail doorbell lines ping-pong \
           ownership); 0 = off, bare flag = 64 calls"
        ~docv:"CALLS")

let rack_quantum =
  Arg.(
    value & opt int 256
    & info [ "quantum" ] ~doc:"accesses per tenant scheduling slice")

let rack_repro_check =
  Arg.(
    value & flag
    & info [ "repro-check" ]
        ~doc:
          "run the rack twice with the same seeds and fail unless every \
           tenant's counter snapshot is bit-identical")

let rack_policy =
  Arg.(
    value & opt string "first-fit"
    & info [ "policy" ]
        ~doc:
          "placement policy: first-fit (static round-robin, no migration) | \
           heat (hot pages migrate to the fast tier) | centralized \
           (MIND-style directory: least-loaded placement + capacity \
           rebalancing)")

let rack_fast_nodes =
  Arg.(
    value & opt int 1
    & info [ "fast-nodes" ]
        ~doc:"nodes 0..N-1 form the low-latency tier the heat policy targets")

let rack_slow_extra_ns =
  Arg.(
    value & opt int 2000
    & info [ "slow-extra-ns" ]
        ~doc:
          "fixed fabric penalty (ns) added to every message bound for a \
           slow-tier node; 0 disables tiering")

let rack_ops_spec =
  Arg.(
    value & opt string ""
    & info [ "rack-ops" ]
        ~doc:
          "scheduled rack operations, e.g. \
           'add@3ms:cap=67108864;drain@5ms:id=1;rebalance@7ms'; drain \
           failures exit 4")

let rack_fmem_pages =
  Arg.(
    value & opt int 0
    & info [ "fmem-pages" ]
        ~doc:
          "per-tenant local cache frames (0 = runtime default); small \
           values thrash FMem and generate the fetch traffic placement \
           feeds on")

let run_term print =
  Term.(
    const (cmd_run print) $ workload_req $ system $ fmem_pages $ replicas
    $ prefetch $ sq_depth $ signal_interval $ fault_spec $ fault_seed
    $ check_replicas $ scrub_interval_opt $ verify_checksums $ retry_max_opt
    $ backoff_base_ns_opt $ heartbeat_ns_opt $ lease_ns_opt $ seed
    $ metrics_json $ trace_out $ full)

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
           "multi-tenant rack simulation: interleave N tenant runtimes over \
            shared memory nodes with weighted-fair ingress bandwidth, \
            per-tenant memory quotas and a cross-tenant shared segment")
      Term.(
        const cmd_rack $ rack_tenants $ rack_workloads $ rack_bw_shares
        $ rack_mem_quotas $ rack_nodes $ rack_node_cap $ rack_node_gbps
        $ rack_shared_pages $ rack_shared_ops $ rack_shared_writers
        $ rack_shm_rpc $ rack_quantum $ rack_policy $ rack_fast_nodes
        $ rack_slow_extra_ns $ rack_ops_spec $ rack_fmem_pages $ replicas
        $ fault_spec $ fault_seed $ retry_max_opt $ backoff_base_ns_opt $ heartbeat_ns_opt
        $ lease_ns_opt $ seed $ full $ metrics_json $ rack_repro_check);
    Cmd.v
      (Cmd.info "soak"
         ~doc:
           "chaos soak: randomized corruption episodes against the \
            shadow-heap divergence oracle; fails on any undetected \
            corruption or accounting gap")
      Term.(
        const cmd_soak $ soak_workload $ episodes $ seed $ soak_scrub_interval
        $ repro_check $ metrics_json);
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "autonomous scenario fuzzing: seeded op sequences over the whole \
            public surface (run slices, crashes, flaps, corruption, quotas, \
            shared segments, scrubs, rack ops), checked against the \
            cross-subsystem invariant registry; failing episodes are \
            delta-debugged to minimal replayable repro specs (exit 5 on \
            violation, exit 1 on replay mismatch)")
      Term.(
        const cmd_fuzz $ fuzz_episodes $ fuzz_ops $ seed $ fuzz_replay
        $ fuzz_repro_out $ metrics_json);
  ]

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "konactl" ~doc:"Kona reproduction driver") cmds))
