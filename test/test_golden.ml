(* Golden telemetry fingerprints: a small corpus of canonical scenario
   specs, each pinned to the digests it produced when it was
   committed.  Runs are deterministic, so any change to
   simulated behaviour — a refactor that moves one counter or one
   virtual nanosecond — shows up here as an explicit digest diff.

   Every entry pins two digests: the tenant digest covers each tenant's
   [tenant.<i>.*] telemetry, the hub digest the whole hub snapshot,
   including the rack-scoped [rack.*], [placement.*] and [coherence.*]
   series that tenant fingerprints never see.

   The golden-run group pins single-runtime runs the same way: each
   [konactl run] of a paper workload on each system, to its hub digest,
   its virtual time and its remote-memory check.

   When a change is meant to alter behaviour, the failure message prints
   the entry with its expected and actual digests; review the diff and
   update the digests beside the entry. *)

open Kona_scenario
module Rack = Kona_rack.Rack
module Snapshot = Kona_telemetry.Snapshot
module Json = Kona_telemetry.Json
module Hub = Kona_telemetry.Hub
module System = Kona_baselines.System
module Workloads = Kona_workloads.Workloads

(* (name, spec, tenant digest, hub digest).  Specs stay small (32 MiB
   nodes, short run slices) so the whole corpus executes in a few
   seconds; the last three run whole smoke-scale workloads on the woven
   shared segment ([seg], [segops]), as [konactl rack] does. *)
let corpus =
  [
    ( "kv-seq, one tenant",
      "setup:tenants=1,cap=33554432,fmem=64;run:n=4000",
      "62c0a3d9a40e75ff4f21e7acc9e20c61",
      "9cf9ff9a87b5065e509598723807a28e" );
    ( "two-tenant heat-policy rack",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,seed=7,scrub=0ns,\
       verify=0,workloads=kv-zipf|kv-uniform,policy=heat;run:n=3000;\
       migrate-epoch;run:n=1000",
      "21afbb939413dd70eaa11a976edfe37b",
      "26ba47adcc678a717d74a2ab20e84780" );
    ( "corruption + scrub",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=512;\
       bit-flip:p=0.2;torn-write:p=0.05;run:n=512;scrub;run:n=512",
      "a122c3af5dffc0c95f5c23c9a343182e",
      "0a924a7087ed900b6205420e642e77e4" );
    ( "lease partition",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       partition:dur=300us,nodes=1;run:n=3000",
      "a63b6997daa6dbbaec9cc11090729e45",
      "d5a4a67637f361f1b84a417184e36100" );
    ( "lease crash",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       crash:id=1;run:n=3000",
      "e146ad461ae0955409c6bffc7440fdbe",
      "0f9503101c1241922d03805a054a5bde" );
    ( "multi-writer + shm-rpc",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns,writers=2;run:n=1000;\
       publish:pages=4;mwrite:rounds=8;shmrpc:calls=8;run:n=1000",
      "389de6c7beb25781303e81469ce2f27f",
      "2fc7d49326b31ed31119df82b05d983d" );
    ( "no-lease crash, replicas=0",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=0;run:n=1000;\
       crash:id=1;run:n=2000",
      "a5a580923768fb17ee568b76d2a11a39",
      "ef8cdd1ef66e5b7fb7e33218c34a522a" );
    ( "no-lease crash, replicas=1",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=1000;\
       crash:id=1;run:n=2000",
      "cda84be93aa57a97b271ea1a7bd87e82",
      "a71ef7e89ec5ebc17e13baa51c5f6489" );
    ( "no-lease double crash, replicas=2",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=2;run:n=1000;\
       crash:id=1;run:n=1000;crash:id=1;run:n=1000",
      "d69a0edf5a086c2a34c3afedd22c31ee",
      "47d5bba30848cb779e47d16cd2d55b3c" );
    ( "tiered rack ops: add, drain, rebalance",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us;\
       run:n=1000;add:cap=16777216;run:n=1000;drain:id=1;run:n=1000;\
       rebalance;run:n=1000",
      "ca70d7237d320d6e1e695ff49c42b79d",
      "79f72a78e8cca310710bdd4724ed4513" );
    ( "published segment + quota",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns;run:n=1000;\
       publish:pages=4;shared:rounds=8;run:n=1000;quota:t=1,bytes=1;\
       run:n=500",
      "7728b3e40604a9ec1a5a9ce77f8e9f44",
      "17f82db26a2ece8d0148d480c680349f" );
    (* The bench/perf rack demo: heat policy over three nodes, one fast,
       a +2 us slow tier, 64 FMem frames per tenant. *)
    ( "rack demo",
      "setup:tenants=2,nodes=3,fmem=64,replicas=0,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256",
      "37c594152de80d6553b03e54a3c6a1a3",
      "db8d9ce10d09221355d030faee5ebdc4" );
    ( "rack demo + replica crash and rack ops",
      "setup:tenants=2,nodes=3,fmem=64,replicas=1,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256;\
       node-crash@3ms:id=1;add@2ms:cap=16777216;drain@4ms:id=2;rebalance@6ms",
      "e81058063ae8879258c95e6ff8ea6ac1",
      "3e3bcde91bf14dbd752c78120659ca76" );
    ( "two writers + shm-rpc",
      "setup:tenants=2,fmem=1024,replicas=0,seed=7,scrub=0ns,verify=0,\
       workloads=kv-seq|kv-uniform,writers=2,seg=64,segops=256;\
       run:n=1000000000;shmrpc:calls=16",
      "e726c56f90560bbc2a7f38ab2ebbd6af",
      "0f45973d74f27ff225ba81969dbdeac1" );
    (* The two migrator-epoch paths that read cold pages.  A 3.5 MiB fast
       node fills up, so the heat policy demotes as well as promotes
       (100 promotions, 512 demotions); with 4 MiB nodes the centralized
       policy runs as the epoch policy and rebalances every epoch. *)
    ( "heat demotions under fast-tier pressure",
      "setup:tenants=2,nodes=3,cap=3670016,fmem=64,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us",
      "af5f472595ead18b65270d623cad5ae9",
      "1dee873e4b8e31b58be74cb4b3e7174f" );
    ( "centralized epoch policy",
      "setup:tenants=2,nodes=3,cap=4194304,fmem=64,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=centralized,fast=1,slowns=2us",
      "e34644dcbe35d81d6cbf782c97746148",
      "fff05a3493a76e240ae0d799e4604690" );
  ]

let hub_digest (r : Rack.result) =
  Digest.to_hex
    (Digest.string (Json.to_string (Snapshot.to_json r.Rack.r_snapshot)))

(* The tenant digest is the episode's fingerprint. *)
let check_episode name ~what ~tenant ~hub spec =
  let o = Episode.execute spec in
  (match o.Episode.oc_violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: violation [%s] %s" name v.Invariants.inv
        v.Invariants.detail);
  let check kind expected actual =
    if actual <> expected then
      Alcotest.failf
        "golden %s digest mismatch for %s\n  %s\n  expected: %s\n  actual:   %s"
        kind name what expected actual
  in
  match o.Episode.oc_result with
  | None -> Alcotest.failf "%s: episode did not finish" name
  | Some r ->
      check "tenant" tenant o.Episode.oc_fingerprint;
      check "hub" hub (hub_digest r)

let check_entry (name, spec, tenant, hub) () =
  check_episode name ~what:("spec: " ^ spec) ~tenant ~hub (Spec.parse_exn spec)

(* One generated episode per [Gen] family: (family, seed, rendered spec,
   tenant digest, hub digest) for [Gen.generate ~seed ~ops:10].  The
   whole rendered line is compared, so a rendering change names the
   clause that moved.  The ops seed renders every rack op. *)
let gen_corpus =
  [
    ( "corruption",
      260047,
      "setup:tenants=1,nodes=2,cap=134217728,gbps=0.5,replicas=1,fmem=256,\
       quantum=256,seed=544471,fseed=981813,scrub=100us,verify=1,\
       workloads=kv-zipf,shares=1,quotas=0,policy=first-fit,fast=1,\
       slowns=0ns,hb=0ns,lease=200us,writers=1;run:n=256;publish:pages=27;\
       dup-deliver:p=0.0954;quota:t=0,bytes=49283072;run:n=2048;run:n=512;\
       torn-write:p=0.0225;dup-deliver:p=0.0633;run:n=768;\
       stale-read:p=0.0717",
      "8453287f90662fc4e18757cd0cf9b21e",
      "32e9b7da34984178beea9775c267d045" );
    ( "ops",
      28,
      "setup:tenants=2,nodes=3,cap=134217728,gbps=0.5,replicas=1,fmem=256,\
       quantum=256,seed=534301,fseed=266499,scrub=200us,verify=1,\
       workloads=kv-uniform|kv-uniform,shares=3|4,quotas=0,policy=heat,\
       fast=2,slowns=500ns,hb=0ns,lease=50us,writers=1;run:n=512;\
       partition:dur=128us,nodes=2;rebalance;run:n=1792;migrate-epoch;\
       run:n=1024;drain:id=0;run:n=1024;add:cap=67108864;run:n=768",
      "9241ae496cb2f0850a0a0020a60c27da",
      "d47a5992bb7552bd6357867d248fcb8a" );
    ( "shmem",
      692496,
      "setup:tenants=3,nodes=2,cap=134217728,gbps=0.5,replicas=1,fmem=128,\
       quantum=128,seed=278545,fseed=127149,scrub=200us,verify=1,\
       workloads=kv-zipf|kv-zipf|kv-uniform,shares=3|3|3,quotas=0,\
       policy=first-fit,fast=1,slowns=0ns,hb=0ns,lease=200us,writers=2;\
       run:n=1024;publish:pages=27;partition:dur=25us,nodes=0;\
       mwrite:rounds=27;run:n=1024;shared:rounds=15;run:n=1536;\
       mwrite:rounds=25;shmrpc:calls=12;mwrite:rounds=20",
      "272104bd270c1c0c5e15ab87d99c6e63",
      "ed79ce5c960d622f1b07a112065e7306" );
  ]

let check_gen (family, seed, line, tenant, hub) () =
  let spec = Gen.generate ~seed ~ops:10 in
  Alcotest.(check string)
    (Printf.sprintf "%s seed %d renders" family seed)
    line (Spec.to_string spec);
  check_episode family
    ~what:(Printf.sprintf "Gen.generate ~seed:%d ~ops:10" seed)
    ~tenant ~hub spec

(* [konactl run -w W --system kona,kona-vm,legoos,infiniswap --seed 7] for
   every paper workload (smoke scale, default configs): (workload, system,
   hub digest, virtual time, (checked, mismatches, lost) pages). *)
let run_corpus =
  [
    ("redis-rand", "kona", "21f1d995d0dd278287e6f18a023e8207", 1776554, (1024, 0, 0));
    ("redis-rand", "kona-vm", "e886c0494e7a563ce514f021aa752e2e", 2746854, (1024, 0, 0));
    ("redis-rand", "legoos", "16cdf24872d420a8d5e83d0ce18254e7", 2645529, (1024, 0, 0));
    ("redis-rand", "infiniswap", "975b2f274338a12903457f5db19d62a8", 4895529, (1024, 0, 0));
    ("redis-seq", "kona", "964a71d67c711006dd1d8e8c87454de4", 1868601, (1024, 0, 0));
    ("redis-seq", "kona-vm", "1aec00b4f13304e1027fb3d616432212", 2660901, (1024, 0, 0));
    ("redis-seq", "legoos", "4bff56e9a0c33f999317d12df162f445", 2559576, (1024, 0, 0));
    ("redis-seq", "infiniswap", "17c650e90c3729ec631ec0b16130ed9b", 4809576, (1024, 0, 0));
    ("linear-regression", "kona", "dbfe640ec93f5dc36bf3a78e578fdf68", 1366530, (945, 0, 0));
    ("linear-regression", "kona-vm", "182f0a69ece2b1c01b7c261bc4821861", 1830780, (945, 0, 0));
    ("linear-regression", "legoos", "0644fd1b26a81901668d0edbe1158961", 1724051, (945, 0, 0));
    ("linear-regression", "infiniswap", "89cfeb0c387b18bd70b8b83a70ff02e3", 4094051, (945, 0, 0));
    ("histogram", "kona", "8ce298be2d2fff73048db81d7c33268b", 633303, (984, 0, 0));
    ("histogram", "kona-vm", "bbb284661c269b3d916e4f5d857da33b", 871203, (984, 0, 0));
    ("histogram", "legoos", "da2a838518cc63d2670b41852f3a29f7", 817163, (984, 0, 0));
    ("histogram", "infiniswap", "5ff0b440e4ea159032e785f5e3b36de2", 2017163, (984, 0, 0));
    ("page-rank", "kona", "cbf9b1d2d0bd8cce2b26580d7ce42047", 431304, (512, 0, 0));
    ("page-rank", "kona-vm", "ddd5592a01a96e79d754ba20daa09b7d", 874504, (512, 0, 0));
    ("page-rank", "legoos", "d52345a5f03214fff3c46df7a57fe3f4", 824517, (512, 0, 0));
    ("page-rank", "infiniswap", "954e11a9f519ac6cc49f8e23031cfa9a", 1934517, (512, 0, 0));
    ("graph-coloring", "kona", "fc8e05317fee87b2fdfbda557f17c71d", 354814, (512, 0, 0));
    ("graph-coloring", "kona-vm", "375acd69c229c465091023296d1be5fd", 798014, (512, 0, 0));
    ("graph-coloring", "legoos", "d3e2c1cf84396744a1c983c0335447de", 748027, (512, 0, 0));
    ("graph-coloring", "infiniswap", "efd0097e6e1cf20bfc5d78c4536fe64d", 1858027, (512, 0, 0));
    ("connected-components", "kona", "37d7fc9230ea62e5ce52e7e7594564cb", 417889, (512, 0, 0));
    ("connected-components", "kona-vm", "37f36533b2d0dc527a6c8e6a21050b41", 861089, (512, 0, 0));
    ("connected-components", "legoos", "3a959b788e4bc14422db349b3b643151", 811102, (512, 0, 0));
    ("connected-components", "infiniswap", "f7813c6ce8ffe7499d0845d697f4ca42", 1921102, (512, 0, 0));
    ("label-propagation", "kona", "149718c3b50a8d022b3229a4ee27c409", 557213, (512, 0, 0));
    ("label-propagation", "kona-vm", "f7c243b980e61604fed05b50d5f16b21", 1121913, (512, 0, 0));
    ("label-propagation", "legoos", "0acf42d0c7a30f73b8e4d570a036538f", 1059767, (512, 0, 0));
    ("label-propagation", "infiniswap", "7263dc569cb447078ab071db7030a033", 2439767, (512, 0, 0));
    ("voltdb", "kona", "306545d0d1ca6b7ca7273b77581e3674", 954367, (1024, 0, 0));
    ("voltdb", "kona-vm", "b7268e1bcaa9d009efd3d03696e0f2ad", 1600417, (1024, 0, 0));
    ("voltdb", "legoos", "102e0b31478587f19a4c7265277d329e", 1518006, (1024, 0, 0));
    ("voltdb", "infiniswap", "5c2f321ddf72548b8a50681c265228a3", 3348006, (1024, 0, 0));
    ("redis-zipf", "kona", "f09878606e42cd120583fdce61202670", 1476916, (1024, 0, 0));
    ("redis-zipf", "kona-vm", "57fa953744597549eaca8271df10164f", 2322116, (1024, 0, 0));
    ("redis-zipf", "legoos", "ab2d5343d597cd46a503d1ea6ca981a6", 2220791, (1024, 0, 0));
    ("redis-zipf", "infiniswap", "bfae74e401bbce7cb6ab54b1f7f37ac0", 4470791, (1024, 0, 0));
  ]

(* [konactl run -w page-rank --system kona --prefetch --fmem-pages 64
   --seed 7]: the one pinned run with the stream prefetcher on.  With 64
   frames FMem also evicts (37 pages), so the caching handler's victim
   path runs with a prefetcher attached. *)
let prefetch_config =
  { Kona.Runtime.default_config with prefetch = true; fmem_pages = 64 }

let prefetch_run =
  ("page-rank", "kona", "3aa3ac2b4b70d784aa9f652c5fc9053b", 365586, (512, 0, 0))

(* Kona with CPU caches small enough that the LLC writes dirty lines back
   (test_core's [small_cpu_caches]: L1 4 KiB 2-way, L2 8 KiB 2-way, LLC
   16 KiB 4-way) over 64 frames, smoke, seed 7.  Every smoke footprint
   fits the default 1 MiB LLC, so only these pins run the write-back
   path: [hierarchy.writebacks] reads 7,435 for voltdb and 16,974 for
   redis-rand, every one landing on a page resident in FMem. *)
let small_caches_config =
  {
    Kona.Runtime.default_config with
    cache_config =
      {
        Kona_cachesim.Hierarchy.l1 =
          { Kona_cachesim.Hierarchy.size = Kona_util.Units.kib 4; assoc = 2 };
        l2 = { Kona_cachesim.Hierarchy.size = Kona_util.Units.kib 8; assoc = 2 };
        llc = { Kona_cachesim.Hierarchy.size = Kona_util.Units.kib 16; assoc = 4 };
      };
    fmem_pages = 64;
  }

let small_caches_runs =
  [
    ("voltdb", "kona", "cbb0ce8bce18f894a981093e8a1f6d16", 1628512, (1024, 0, 0));
    ("redis-rand", "kona", "6452d2db72c88f0e8b0516921440d799", 15325788, (1024, 0, 0));
  ]

let render_run (workload, system, hub, elapsed_ns, (checked, mismatches, lost)) =
  Printf.sprintf "(%S, %S, %S, %d, (%d, %d, %d))" workload system hub elapsed_ns
    checked mismatches lost

let check_run ?(kona = Kona.Runtime.default_config)
    ((workload, system, _, _, _) as expected) () =
  let r =
    System.run ~kona ~vm:Kona_baselines.Vm_runtime.default_config
      (Workloads.find workload)
      Workloads.Smoke ~seed:7 system
  in
  let c = r.System.check in
  let actual =
    ( workload,
      system,
      Digest.to_hex
        (Digest.string
           (Json.to_string (Snapshot.to_json (Hub.snapshot r.System.hub)))),
      r.System.elapsed_ns,
      System.(c.checked, c.mismatches, c.lost) )
  in
  if actual <> expected then
    Alcotest.failf "golden run moved\n  expected: %s\n  actual:   %s"
      (render_run expected) (render_run actual)

let () =
  Alcotest.run "kona_golden"
    [
      ( "golden",
        List.map
          (fun ((name, _, _, _) as entry) ->
            Alcotest.test_case name `Quick (check_entry entry))
          corpus );
      ( "golden-gen",
        List.map
          (fun ((family, seed, _, _, _) as entry) ->
            Alcotest.test_case
              (Printf.sprintf "%s family, seed %d" family seed)
              `Quick (check_gen entry))
          gen_corpus );
      ( "golden-run",
        List.map
          (fun ((workload, system, _, _, _) as entry) ->
            Alcotest.test_case
              (Printf.sprintf "%s on %s" workload system)
              `Quick (check_run entry))
          run_corpus
        @ [
            Alcotest.test_case "page-rank on kona, prefetch, 64 frames" `Quick
              (check_run ~kona:prefetch_config prefetch_run);
          ]
        @ List.map
            (fun ((workload, system, _, _, _) as entry) ->
              Alcotest.test_case
                (Printf.sprintf "%s on %s, small CPU caches, 64 frames"
                   workload system)
                `Quick
                (check_run ~kona:small_caches_config entry))
            small_caches_runs );
    ]
