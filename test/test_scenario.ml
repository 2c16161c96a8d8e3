(* Tests for kona_scenario: the episode grammar (round-trip property
   over every op kind), the seeded generator, the deterministic episode
   executor with its invariant registry, and the delta-debugging
   shrinker (including a planted cross-subsystem bug that must converge
   to a <= 3-op repro). *)

open Kona_scenario
module Rack = Kona_rack.Rack
module Fault_spec = Kona_faults.Fault_spec
module Rack_ops = Kona_rack.Rack_ops

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Grammar *)

(* Every op kind — scenario ops, every probabilistic fault clause, and
   every rack op — composed in one spec string. *)
let kitchen_sink =
  "setup:tenants=2,nodes=3,cap=8388608,gbps=2,replicas=1,fmem=64,quantum=128,\
   seed=1,fseed=2,scrub=100us,verify=1,workloads=kv-seq|kv-uniform,\
   shares=2|1,quotas=0|1048576,policy=heat,fast=2,slowns=500ns,hb=20us,\
   lease=100us;run:n=100;\
   crash:id=1;flap:dur=20us;partition:dur=30us,nodes=0|2;bit-flip:p=0.25;torn-write:p=0.1;\
   stale-read:p=0.05;dup-deliver:p=0.2;wqe-drop:p=0.1;wqe-delay:p=0.1,ns=500;\
   rpc-timeout:p=0.05;quota:t=1,bytes=2097152;publish:pages=8;\
   shared:rounds=4;scrub;add;add:cap=4194304;drain:id=2;rebalance;\
   migrate-epoch"

let test_parse_kitchen_sink () =
  let t = Spec.parse_exn kitchen_sink in
  check_int "tenants" 2 t.Spec.setup.Spec.tenants;
  check_int "nodes" 3 t.Spec.setup.Spec.nodes;
  check_int "scrub" 100_000 t.Spec.setup.Spec.scrub_ns;
  Alcotest.(check (list string))
    "workloads"
    [ "kv-seq"; "kv-uniform" ]
    t.Spec.setup.Spec.workloads;
  check_int "hb" 20_000 t.Spec.setup.Spec.heartbeat_ns;
  check_int "lease" 100_000 t.Spec.setup.Spec.lease_ns;
  check_int "ops" 20 (List.length t.Spec.ops);
  (match t.Spec.ops with
  | Spec.Run { n = 100 } :: Spec.Crash { id = 1 } :: Spec.Flap { dur_ns = 20_000 } :: _
    ->
      ()
  | _ -> Alcotest.fail "unexpected head ops");
  (match List.rev t.Spec.ops with
  | Spec.Migrate_epoch :: Spec.Rack Rack_ops.Rebalance
    :: Spec.Rack (Rack_ops.Drain { id = 2 })
    :: Spec.Rack (Rack_ops.Add_node { capacity = Some 4194304 })
    :: Spec.Rack (Rack_ops.Add_node { capacity = None }) :: Spec.Scrub :: _ ->
      ()
  | _ -> Alcotest.fail "unexpected tail ops");
  (* canonical rendering re-parses to the same value *)
  check_bool "round-trips" true (Spec.parse_exn (Spec.to_string t) = t)

let test_parse_defaults () =
  let t = Spec.parse_exn "setup:" in
  check_bool "defaults" true (t.Spec.setup = Spec.default_setup);
  check_int "no ops" 0 (List.length t.Spec.ops)

let test_parse_errors () =
  let bad s =
    match Spec.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "must start with setup" true (bad "run:n=5");
  check_bool "untimed node-crash rejected" true (bad "setup:;node-crash:id=0");
  check_bool "lease below heartbeat rejected" true
    (bad "setup:hb=100us,lease=50us");
  check_bool "partition needs nodes" true (bad "setup:;partition:dur=2ms");
  check_bool "unknown op" true (bad "setup:;frobnicate");
  check_bool "unknown setup key" true (bad "setup:bogus=1");
  check_bool "bad duration" true (bad "setup:scrub=fast");
  check_bool "zero tenants" true (bad "setup:tenants=0");
  check_bool "empty share" true (bad "setup:shares=0")

(* A duration whose nanoseconds overflow [int] is an error, not a
   wrapped value: a wrapped scrub interval turned the scrubber off and
   rendered as text that no longer parsed, and 10^10 s wrapped to a
   positive flap of about 777 ms. *)
let test_parse_duration_overflow () =
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true
        (match Spec.parse s with Error _ -> true | Ok _ -> false))
    [
      "setup:scrub=5000000000s";
      "setup:;flap:dur=10000000000s";
      "setup:;wqe-delay:p=0.1,ns=5000000000s";
    ]

(* Spec ops apply at their position in the sequence: only the scheduled
   fault and rack-op kinds take a trigger time, so any other op written
   with one is an unknown op. *)
let test_parse_timed_op_rejected () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Error m ->
          check_bool (s ^ ": unknown op") true
            (String.length m >= 10 && String.sub m 0 10 = "unknown op")
      | Ok _ -> Alcotest.failf "accepted %s" s)
    [ "setup:;run@1ms:n=5" ]

(* Random well-formed specs survive a print/parse round trip.  Numeric
   fields are drawn from grids whose canonical rendering re-parses
   exactly (probabilities as k/1000, gbps as k/10). *)
let spec_gen =
  let open QCheck.Gen in
  let prob = map (fun k -> float_of_int k /. 1000.) (int_range 1 999) in
  let at = int_bound 10_000_000 in
  let corrupt =
    oneof
      [
        map (fun p -> Fault_spec.Rpc_timeout { p }) prob;
        map (fun p -> Fault_spec.Wqe_drop { p }) prob;
        map2 (fun p delay_ns -> Fault_spec.Wqe_delay { p; delay_ns }) prob
          (int_range 1 100_000);
        map (fun p -> Fault_spec.Bit_flip { p }) prob;
        map (fun p -> Fault_spec.Torn_write { p }) prob;
        map (fun p -> Fault_spec.Stale_read { p }) prob;
        map (fun p -> Fault_spec.Dup_deliver { p }) prob;
      ]
  in
  let op =
    oneof
      [
        map (fun n -> Spec.Run { n = n + 1 }) (int_bound 5000);
        map (fun id -> Spec.Crash { id }) (int_bound 7);
        map (fun d -> Spec.Flap { dur_ns = d + 1 }) (int_bound 1_000_000);
        map2
          (fun d ids -> Spec.Partition { dur_ns = d + 1; ids })
          (int_bound 1_000_000)
          (list_size (int_range 1 3) (int_bound 7));
        map (fun c -> Spec.Corrupt c) corrupt;
        map2
          (fun tenant bytes -> Spec.Quota { tenant; bytes })
          (int_bound 3) (int_bound 100_000_000);
        map (fun p -> Spec.Publish { pages = p + 1 }) (int_bound 100);
        map (fun r -> Spec.Shared { rounds = r + 1 }) (int_bound 100);
        map (fun r -> Spec.Mwrite { rounds = r + 1 }) (int_bound 100);
        map (fun c -> Spec.Shm_rpc { calls = c + 1 }) (int_bound 100);
        pure Spec.Scrub;
        map
          (fun c ->
            Spec.Rack (Rack_ops.Add_node { capacity = Option.map (( + ) 1) c }))
          (opt (int_bound 100_000_000));
        map (fun id -> Spec.Rack (Rack_ops.Drain { id })) (int_bound 7);
        pure (Spec.Rack Rack_ops.Rebalance);
        pure Spec.Migrate_epoch;
        map2
          (fun at_ns id -> Spec.Fault_at (Fault_spec.Node_crash { at_ns; id }))
          at (int_bound 7);
        map2
          (fun at_ns d ->
            Spec.Fault_at (Fault_spec.Link_flap { at_ns; dur_ns = d + 1 }))
          at (int_bound 1_000_000);
        map3
          (fun at_ns d ids ->
            Spec.Fault_at (Fault_spec.Partition { at_ns; dur_ns = d + 1; ids }))
          at (int_bound 1_000_000)
          (list_size (int_range 1 3) (int_bound 7));
        map2
          (fun at_ns c ->
            let capacity = Option.map (( + ) 1) c in
            Spec.Rack_at { Rack_ops.at_ns; op = Rack_ops.Add_node { capacity } })
          at
          (opt (int_bound 100_000_000));
        map2
          (fun at_ns id ->
            Spec.Rack_at { Rack_ops.at_ns; op = Rack_ops.Drain { id } })
          at (int_bound 7);
        map
          (fun at_ns -> Spec.Rack_at { Rack_ops.at_ns; op = Rack_ops.Rebalance })
          at;
      ]
  in
  let setup =
    let pool = [ "kv-seq"; "kv-uniform"; "kv-zipf"; "page-rank" ] in
    let* tenants = int_range 1 4 in
    let* nodes = int_range 1 5 in
    let* node_cap = int_range 1 200_000_000 in
    let* gbps = map (fun k -> float_of_int k /. 10.) (int_range 1 100) in
    let* replicas = int_range 0 2 in
    let* fmem = int_range 1 1024 in
    let* quantum = int_range 1 4096 in
    let* seed = int_bound 1_000_000 in
    let* fault_seed = int_bound 1_000_000 in
    let* scrub_ns = int_bound 10_000_000 in
    let* verify = bool in
    let* workloads = list_size (int_range 1 4) (oneofl pool) in
    let* shares = list_size (int_range 1 4) (int_range 1 9) in
    let* quotas = list_size (int_range 1 4) (int_bound 100_000_000) in
    let* policy = oneofl [ "first-fit"; "heat"; "centralized" ] in
    let* fast_nodes = int_bound 5 in
    let* slow_extra_ns = int_bound 10_000 in
    let* heartbeat_ns = oneofl [ 0; 0; 10_000; 50_000 ] in
    let* lease_ns = oneofl [ 50_000; 100_000; 200_000 ] in
    let* writers = int_range 1 4 in
    let* shared_pages = oneof [ pure 0; int_bound 128 ] in
    let+ shared_ops = oneof [ pure 0; int_bound 512 ] in
    {
      Spec.tenants;
      nodes;
      node_cap;
      gbps;
      replicas;
      fmem;
      quantum;
      seed;
      fault_seed;
      scrub_ns;
      verify;
      workloads;
      shares;
      quotas;
      policy;
      fast_nodes;
      slow_extra_ns;
      heartbeat_ns;
      lease_ns;
      writers;
      shared_pages;
      shared_ops;
    }
  in
  QCheck.Gen.map2
    (fun setup ops -> { Spec.setup; ops })
    setup
    (QCheck.Gen.list_size (QCheck.Gen.int_bound 20) op)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"scenario specs round-trip through to_string/parse"
    ~count:300
    (QCheck.make
       ~print:(fun t -> Spec.to_string t)
       spec_gen)
    (fun t -> Spec.parse_exn (Spec.to_string t) = t)

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_generate_deterministic () =
  let a = Gen.generate ~seed:5 ~ops:12 in
  let b = Gen.generate ~seed:5 ~ops:12 in
  check_bool "same seed, same spec" true (a = b);
  check_string "same rendering" (Spec.to_string a) (Spec.to_string b);
  let c = Gen.generate ~seed:6 ~ops:12 in
  check_bool "different seed, different spec" true (a <> c)

let test_generate_round_trips () =
  for seed = 0 to 24 do
    let t = Gen.generate ~seed ~ops:12 in
    check_int "op count" 12 (List.length t.Spec.ops);
    (match t.Spec.ops with
    | Spec.Run _ :: _ -> ()
    | _ -> Alcotest.fail "first op must be a run slice");
    if Spec.parse_exn (Spec.to_string t) <> t then
      Alcotest.failf "seed %d does not round-trip: %s" seed (Spec.to_string t)
  done

(* ------------------------------------------------------------------ *)
(* Executor + invariants *)

let small_setup =
  {
    Spec.default_setup with
    Spec.node_cap = Kona_util.Units.mib 32;
    fmem = 64;
  }

let test_execute_deterministic () =
  let spec =
    {
      Spec.setup = small_setup;
      ops =
        [
          Spec.Run { n = 512 };
          Spec.Corrupt (Fault_spec.Bit_flip { p = 0.2 });
          Spec.Publish { pages = 8 };
          Spec.Shared { rounds = 4 };
          Spec.Scrub;
          Spec.Run { n = 512 };
        ];
    }
  in
  let a = Episode.execute spec in
  let b = Episode.execute spec in
  check_bool "no violations" true (a.Episode.oc_violations = []);
  check_bool "not aborted" true (a.Episode.oc_aborted = None);
  check_bool "fingerprint nonempty" true (a.Episode.oc_fingerprint <> "");
  check_string "bit-identical fingerprints" a.Episode.oc_fingerprint
    b.Episode.oc_fingerprint;
  check_bool "bit-identical integrity counters" true
    (a.Episode.oc_integrity = b.Episode.oc_integrity);
  (* the armed clause actually injected and was accounted *)
  check_bool "bit flips armed" true
    (List.assoc "integrity.flips_armed" a.Episode.oc_integrity > 0)

let test_execute_rack_ops () =
  let spec =
    {
      Spec.setup =
        { small_setup with Spec.tenants = 2; workloads = [ "kv-seq" ] };
      ops =
        [
          Spec.Run { n = 512 };
          Spec.Rack (Rack_ops.Add_node { capacity = None });
          Spec.Quota { tenant = 1; bytes = Kona_util.Units.mib 24 };
          Spec.Rack (Rack_ops.Drain { id = 0 });
          Spec.Run { n = 512 };
          Spec.Crash { id = 1 };
          Spec.Flap { dur_ns = 20_000 };
          Spec.Rack Rack_ops.Rebalance;
          Spec.Migrate_epoch;
        ];
    }
  in
  let o = Episode.execute spec in
  check_bool "not aborted" true (o.Episode.oc_aborted = None);
  (match o.Episode.oc_violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "unexpected violation [%s] %s" v.Invariants.inv
        v.Invariants.detail);
  match o.Episode.oc_result with
  | None -> Alcotest.fail "expected a finished episode"
  | Some r ->
      check_int "crash happened" 1 r.Rack.r_node_crashes;
      check_bool "drain moved pages" true (r.Rack.r_drained_pages > 0);
      check_int "ops applied" 3 r.Rack.r_ops_applied

(* Overlapping faults: a partition strikes while a node drain is in
   flight, under lease-based membership.  The drain is a resumable
   recovery task, so the partition interleaves with it instead of
   aborting it; the shadow-heap oracle and the membership invariants
   (at-most-one-primary, no-post-fence-write, recovery-convergence)
   check every op boundary. *)
let test_partition_mid_drain () =
  let spec =
    {
      Spec.setup =
        {
          small_setup with
          Spec.nodes = 3;
          replicas = 1;
          heartbeat_ns = 20_000;
          lease_ns = 100_000;
        };
      ops =
        [
          Spec.Run { n = 1024 };
          Spec.Rack (Rack_ops.Drain { id = 1 });
          (* mid-drain: the drain task is pending when this window opens *)
          Spec.Partition { dur_ns = 300_000; ids = [ 0 ] };
          Spec.Run { n = 1024 };
          Spec.Run { n = 1024 };
        ];
    }
  in
  let a = Episode.execute spec in
  check_bool "not aborted" true (a.Episode.oc_aborted = None);
  (match a.Episode.oc_violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "unexpected violation [%s] %s" v.Invariants.inv
        v.Invariants.detail);
  (* the same overlapping schedule is bit-reproducible *)
  let b = Episode.execute spec in
  check_string "bit-identical fingerprints" a.Episode.oc_fingerprint
    b.Episode.oc_fingerprint

(* A timed clause joins the start-time calendar: it fires at its virtual
   time wherever it sits in the op list. *)
let test_timed_clause_fires_by_time () =
  let setup = "setup:tenants=1,cap=33554432,fmem=64,replicas=1" in
  let run line =
    let o = Episode.execute (Spec.parse_exn line) in
    (match o.Episode.oc_violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "%s: violation [%s] %s" line v.Invariants.inv
          v.Invariants.detail);
    match o.Episode.oc_result with
    | None -> Alcotest.failf "%s: episode did not finish" line
    | Some r ->
        check_int "faults.node_crashes" 1
          (Option.get
             (Kona_telemetry.Snapshot.counter_value r.Rack.r_snapshot
                "tenant.0.faults.node_crashes"));
        o.Episode.oc_fingerprint
  in
  let first = run (setup ^ ";node-crash@1ms:id=1;run:n=1000;run:n=1000") in
  let last = run (setup ^ ";run:n=1000;run:n=1000;node-crash@1ms:id=1") in
  check_string "same fingerprint first or last" first last

(* A timed partition or link flap cuts the whole rack, like its
   positional op: every tenant opens the window and counts it, not only
   tenant 0. *)
let test_timed_faults_reach_every_tenant () =
  List.iter
    (fun (clause, name) ->
      let line = "setup:tenants=2,cap=33554432,fmem=64;" ^ clause in
      match (Episode.execute (Spec.parse_exn line)).Episode.oc_result with
      | None -> Alcotest.failf "%s: episode did not finish" line
      | Some r ->
          let count i =
            Option.get
              (Kona_telemetry.Snapshot.counter_value r.Rack.r_snapshot
                 (Printf.sprintf "tenant.%d.%s" i name))
          in
          check_bool (line ^ ": tenant 1 counts it") true (count 1 > 0);
          check_int (line ^ ": tenant 1 = tenant 0") (count 0) (count 1))
    [
      ("partition@1ms:dur=2ms,nodes=1", "partition.started");
      ("link-flap@1ms:dur=2ms", "faults.link_flaps");
    ]

(* The positional partition: and flap: ops reach every tenant like their
   timed twins, and a corruption op stays on tenant 0, the corruption
   target: one partition and one flap counted on each tenant, torn
   shipments drawn on tenant 0 only, and the run exits clean. *)
let test_positional_faults_reach_every_tenant () =
  let line =
    "setup:tenants=2,cap=33554432,fmem=64;partition:dur=2ms,nodes=1;\
     flap:dur=2ms;torn-write:p=0.2"
  in
  let o = Episode.execute (Spec.parse_exn line) in
  check_bool "not aborted" true (o.Episode.oc_aborted = None);
  List.iter
    (fun v -> Alcotest.failf "violation [%s] %s" v.Invariants.inv v.Invariants.detail)
    o.Episode.oc_violations;
  match o.Episode.oc_result with
  | None -> Alcotest.fail "episode did not finish"
  | Some r ->
      check_int "drain failures" 0 r.Rack.r_drain_failures;
      Array.iter
        (fun (t : Rack.tenant_result) ->
          check_int "mismatches" 0 t.Rack.t_mismatches;
          check_bool "not degraded" true (t.Rack.t_degraded = None))
        r.Rack.r_tenants;
      let count i name =
        Option.get
          (Kona_telemetry.Snapshot.counter_value r.Rack.r_snapshot
             (Printf.sprintf "tenant.%d.%s" i name))
      in
      List.iter
        (fun (name, t0, t1) ->
          check_int ("tenant 0 " ^ name) t0 (count 0 name);
          check_int ("tenant 1 " ^ name) t1 (count 1 name))
        [
          ("partition.started", 1, 1);
          ("faults.link_flaps", 1, 1);
          ("faults.torn_writes", 4, 0);
        ]

(* One crash count: a crash op and a due plan clause both reach the one
   crash counter, so every surface reads the same number — tenant 0's
   [stats], its registry ([faults.node_crashes], inside [faults.injected])
   and the rack result. *)
let test_one_crash_count () =
  let surfaces line =
    let engine = ref None in
    let o =
      Episode.execute
        ~plant:(fun _ _ e -> engine := Some e)
        (Spec.parse_exn line)
    in
    match (o.Episode.oc_result, !engine) with
    | Some r, Some e ->
        let rt = Rack.runtime e ~tenant:0 in
        let snap name =
          Option.get
            (Kona_telemetry.Snapshot.counter_value r.Rack.r_snapshot name)
        in
        [
          ("stats", List.assoc "faults.node_crashes" (Kona.Runtime.stats rt));
          ("registry", snap "tenant.0.faults.node_crashes");
          ("injected", snap "tenant.0.faults.injected");
          ("rack", r.Rack.r_node_crashes);
        ]
    | _ -> Alcotest.failf "%s: episode did not finish" line
  in
  List.iter
    (fun line ->
      List.iter
        (fun (surface, n) -> check_int (line ^ ": " ^ surface) 1 n)
        (surfaces line))
    [
      "setup:tenants=2,nodes=3,replicas=1;run:n=512;crash:id=1;run:n=512";
      "setup:tenants=2,nodes=3,replicas=1;node-crash@1ms:id=1;run:n=512;\
       run:n=512";
    ]

(* An exhausted retry budget is a resource abort, like a quota overrun:
   the episode reports it instead of raising. *)
let test_retry_budget_aborts () =
  List.iter
    (fun (line, why) ->
      let o = Episode.execute (Spec.parse_exn line) in
      check_bool "no violations" true (o.Episode.oc_violations = []);
      check_string "no fingerprint" "" o.Episode.oc_fingerprint;
      check_string line why (Option.value o.Episode.oc_aborted ~default:""))
    [
      ( "setup:tenants=1;rpc-timeout:p=0.9;run:n=100000",
        "rpc-timeout: a control-plane call gave up after 6 attempts" );
      ( "setup:tenants=1;wqe-drop:p=0.9;run:n=100000",
        "retry-exhausted: a queue pair gave up after 8 attempts" );
    ]

(* Without a replica a flipped line has no clean copy: it is declared
   unrepairable once, and the scrub sweeps after that neither find nor
   count it again, so the integrity ledger stays exact. *)
let test_unrepairable_flips_accounted () =
  let o =
    Episode.execute
      (Spec.parse_exn
         "setup:tenants=1,replicas=0,fmem=64,scrub=50us,verify=0,\
          workloads=kv-uniform;bit-flip:p=0.3")
  in
  List.iter
    (fun v -> Alcotest.failf "violation [%s] %s" v.Invariants.inv v.Invariants.detail)
    o.Episode.oc_violations;
  match o.Episode.oc_result with
  | Some r ->
      check_bool "a line was declared unrepairable" true
        (r.Rack.r_tenants.(0).Rack.t_degraded <> None)
  | None -> Alcotest.fail "episode did not finish"

(* A flipped line repaired during a link flap: with the flap holding
   back CL-log deliveries, the primary's and the mirror's copies of a
   shipment land at different times, so a repair must not copy a line
   from a copy whose delivery is still in flight.  Each spec must finish
   with no violation, no diverged or degraded page, and every armed flip
   found or healed. *)
let test_repair_waits_for_deliveries () =
  List.iter
    (fun line ->
      let o = Episode.execute (Spec.parse_exn line) in
      check_bool (line ^ ": not aborted") true (o.Episode.oc_aborted = None);
      List.iter
        (fun v ->
          Alcotest.failf "%s: violation [%s] %s" line v.Invariants.inv
            v.Invariants.detail)
        o.Episode.oc_violations;
      (match o.Episode.oc_result with
      | None -> Alcotest.failf "%s: episode did not finish" line
      | Some r ->
          Array.iter
            (fun (t : Rack.tenant_result) ->
              check_int (line ^ ": mismatches") 0 t.Rack.t_mismatches;
              check_bool (line ^ ": not degraded") true (t.Rack.t_degraded = None))
            r.Rack.r_tenants);
      let count name = List.assoc name o.Episode.oc_integrity in
      check_bool (line ^ ": flips armed") true (count "integrity.flips_armed" > 0);
      check_int
        (line ^ ": armed = found + healed")
        (count "integrity.flips_armed")
        (count "integrity.flips_found" + count "integrity.healed_overwrite"))
    [
      "setup:tenants=1,fmem=64;flap:dur=2ms;bit-flip:p=0.5";
      "setup:tenants=1,fmem=32;flap:dur=2ms;bit-flip:p=0.5";
      "setup:tenants=1,fmem=64;flap:dur=500us;bit-flip:p=0.5";
      "setup:tenants=2,fmem=64;flap:dur=2ms;bit-flip:p=0.5";
    ]

(* A node added to a replicated rack gets its mirrors when it registers:
   crashing it mid-run promotes one, so no page stays homed on the dead
   node and nothing is lost.  The same spec crashing node 1 instead (a
   node from setup) always passed. *)
let test_added_node_is_mirrored () =
  List.iter
    (fun line ->
      let o = Episode.execute (Spec.parse_exn line) in
      check_bool (line ^ ": not aborted") true (o.Episode.oc_aborted = None);
      List.iter
        (fun v ->
          Alcotest.failf "%s: violation [%s] %s" line v.Invariants.inv
            v.Invariants.detail)
        o.Episode.oc_violations;
      match o.Episode.oc_result with
      | None -> Alcotest.failf "%s: episode did not finish" line
      | Some r ->
          Array.iter
            (fun (t : Rack.tenant_result) ->
              check_int (line ^ ": mismatches") 0 t.Rack.t_mismatches;
              check_int (line ^ ": lost pages") 0 t.Rack.t_lost_pages;
              check_bool (line ^ ": not degraded") true (t.Rack.t_degraded = None))
            r.Rack.r_tenants;
          check_bool (line ^ ": the added node failed over") true
            (Kona_telemetry.Snapshot.counter_value
               r.Rack.r_tenants.(0).Rack.t_snapshot
               "tenant.0.replication.failovers"
            = Some 1))
    [
      "setup:tenants=1,nodes=2,replicas=1,fmem=64,workloads=kv-uniform;\
       add:cap=134217728;run:n=200000;crash:id=2;run:n=1000000000";
      "setup:tenants=2,nodes=2,replicas=1,fmem=64,workloads=kv-uniform;\
       add:cap=134217728;run:n=200000;crash:id=2;run:n=1000000000";
      "setup:tenants=1,nodes=2,replicas=2,fmem=64,workloads=kv-uniform;\
       add:cap=134217728;run:n=200000;crash:id=2;run:n=1000000000";
      "setup:tenants=1,nodes=2,replicas=1,fmem=64,workloads=kv-uniform;\
       add@1ms:cap=134217728;node-crash@20ms:id=2";
    ]

let raises msg f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument %S" msg
  | exception Invalid_argument m -> check_string "message" msg m

(* The rack's own checks name a bad configuration; nothing is clamped. *)
let test_rack_rejects_config () =
  raises "Rack.run: fast_nodes out of range" (fun () ->
      Episode.execute (Spec.parse_exn "setup:nodes=2,fast=5"));
  raises
    "Rack.run: drain at 1000000 ns of node 5, which no earlier add has created"
    (fun () -> Episode.execute (Spec.parse_exn "setup:tenants=2;drain@1ms:id=5"))

let test_registry_names () =
  List.iter
    (fun n ->
      check_bool (n ^ " registered") true (List.mem n Invariants.names))
    [
      "node-accounting";
      "quota-conservation";
      "placement-coherence";
      "shadow-heap";
      "integrity-accounting";
      "wfq-bounds";
      "at-most-one-primary";
      "no-post-fence-write";
      "recovery-convergence";
    ]

(* ------------------------------------------------------------------ *)
(* Shrinker *)

(* Pure syntactic oracle: fails iff the sequence still holds a crash op
   and at least two scrubs.  ddmin must strip everything else. *)
let test_shrink_syntactic () =
  let ops =
    [
      Spec.Run { n = 4096 };
      Spec.Scrub;
      Spec.Publish { pages = 16 };
      Spec.Crash { id = 0 };
      Spec.Run { n = 512 };
      Spec.Scrub;
      Spec.Rack Rack_ops.Rebalance;
      Spec.Scrub;
      Spec.Flap { dur_ns = 1_000_000 };
      Spec.Run { n = 256 };
    ]
  in
  let spec = { Spec.setup = Spec.default_setup; ops } in
  let oracle t =
    let crashes =
      List.length
        (List.filter (function Spec.Crash _ -> true | _ -> false) t.Spec.ops)
    in
    let scrubs =
      List.length
        (List.filter (function Spec.Scrub -> true | _ -> false) t.Spec.ops)
    in
    if crashes >= 1 && scrubs >= 2 then Some "synthetic" else None
  in
  let r = Shrink.run ~oracle spec in
  check_int "minimal op count" 3 (List.length r.Shrink.minimal.Spec.ops);
  check_bool "still fails" true (oracle r.Shrink.minimal = Some "synthetic");
  (* numeric-field phase: a failing run op halves down to n=1 *)
  let spec2 =
    {
      Spec.setup = Spec.default_setup;
      ops = [ Spec.Run { n = 4096 }; Spec.Scrub ];
    }
  in
  let oracle2 t =
    if List.exists (function Spec.Run _ -> true | _ -> false) t.Spec.ops then
      Some "run-present"
    else None
  in
  let r2 = Shrink.run ~oracle:oracle2 spec2 in
  check_bool "single minimal op" true
    (r2.Shrink.minimal.Spec.ops = [ Spec.Run { n = 1 } ])

let test_shrink_requires_failure () =
  let spec = { Spec.setup = Spec.default_setup; ops = [ Spec.Scrub ] } in
  check_bool "passing spec rejected" true
    (try
       ignore (Shrink.run ~oracle:(fun _ -> None) spec);
       false
     with Invalid_argument _ -> true)

(* Planted cross-subsystem bug: on every migrate-epoch op, leak one slab
   straight out of the rack controller (charged to tenant t0 but owned
   by no resource manager) — exactly the accounting drift the
   quota-conservation invariant exists to catch.  The shrinker must take
   a 16-op failing sequence down to a <= 3-op repro that still trips the
   same named invariant. *)
let planted_ops =
  [
    Spec.Run { n = 256 };
    Spec.Scrub;
    Spec.Quota { tenant = 0; bytes = Kona_util.Units.mib 24 };
    Spec.Run { n = 256 };
    Spec.Scrub;
    Spec.Publish { pages = 8 };
    Spec.Run { n = 512 };
    Spec.Quota { tenant = 0; bytes = Kona_util.Units.mib 26 };
    Spec.Migrate_epoch;
    Spec.Run { n = 256 };
    Spec.Scrub;
    Spec.Shared { rounds = 4 };
    Spec.Run { n = 256 };
    Spec.Scrub;
    Spec.Run { n = 256 };
    Spec.Scrub;
  ]

let plant _i op engine =
  match op with
  | Spec.Migrate_epoch ->
      ignore
        (Kona.Rack_controller.allocate_slab ~tenant:"t0"
           (Rack.controller engine) ~vaddr:0x5000_0000)
  | _ -> ()

let test_planted_bug_shrinks () =
  let spec = { Spec.setup = small_setup; ops = planted_ops } in
  check_bool "at least 15 ops" true (List.length spec.Spec.ops >= 15);
  let oracle t =
    match (Episode.execute ~plant ~check_end:false t).Episode.oc_violations with
    | [] -> None
    | v :: _ -> Some v.Invariants.inv
  in
  check_bool "planted bug detected" true
    (oracle spec = Some "quota-conservation");
  let r = Shrink.run ~oracle spec in
  check_bool
    (Printf.sprintf "minimal repro has <= 3 ops (got %d)"
       (List.length r.Shrink.minimal.Spec.ops))
    true
    (List.length r.Shrink.minimal.Spec.ops <= 3);
  check_bool "minimal repro still trips quota-conservation" true
    (oracle r.Shrink.minimal = Some "quota-conservation");
  (* the repro is a replayable spec line *)
  check_bool "repro round-trips" true
    (Spec.parse_exn (Spec.to_string r.Shrink.minimal) = r.Shrink.minimal)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kona_scenario"
    [
      ( "grammar",
        [
          Alcotest.test_case "kitchen sink" `Quick test_parse_kitchen_sink;
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "overflowing duration rejected" `Quick
            test_parse_duration_overflow;
          Alcotest.test_case "timed op rejected" `Quick
            test_parse_timed_op_rejected;
          QCheck_alcotest.to_alcotest ~long:false prop_spec_roundtrip;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "round-trips" `Quick test_generate_round_trips;
        ] );
      ( "executor",
        [
          Alcotest.test_case "deterministic fingerprints" `Quick
            test_execute_deterministic;
          Alcotest.test_case "rack ops" `Quick test_execute_rack_ops;
          Alcotest.test_case "partition mid-drain" `Quick
            test_partition_mid_drain;
          Alcotest.test_case "timed clause fires by time" `Quick
            test_timed_clause_fires_by_time;
          Alcotest.test_case "timed faults reach every tenant" `Quick
            test_timed_faults_reach_every_tenant;
          Alcotest.test_case "positional faults reach every tenant" `Quick
            test_positional_faults_reach_every_tenant;
          Alcotest.test_case "one crash count" `Quick test_one_crash_count;
          Alcotest.test_case "rack rejects a bad config" `Quick
            test_rack_rejects_config;
          Alcotest.test_case "exhausted retry budget aborts" `Quick
            test_retry_budget_aborts;
          Alcotest.test_case "unreplicated flips accounted once" `Quick
            test_unrepairable_flips_accounted;
          Alcotest.test_case "repair waits for in-flight deliveries" `Quick
            test_repair_waits_for_deliveries;
          Alcotest.test_case "a node added mid-run is mirrored" `Quick
            test_added_node_is_mirrored;
          Alcotest.test_case "registry names" `Quick test_registry_names;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "syntactic ddmin" `Quick test_shrink_syntactic;
          Alcotest.test_case "requires a failing spec" `Quick
            test_shrink_requires_failure;
          Alcotest.test_case "planted bug to minimal repro" `Quick
            test_planted_bug_shrinks;
        ] );
    ]
