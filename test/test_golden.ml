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
      "31110cd75b6c78014ee45b5ac3772fa0",
      "73d25209ba1987c2c970b7cb3906743b" );
    ( "two-tenant heat-policy rack",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,seed=7,scrub=0ns,\
       verify=0,workloads=kv-zipf|kv-uniform,policy=heat;run:n=3000;\
       migrate-epoch;run:n=1000",
      "7f33f7f764498ae5ab3f0fe02356dbab",
      "4baf71b0440d724d424826b630bfd8ef" );
    ( "corruption + scrub",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=512;\
       bit-flip:p=0.2;torn-write:p=0.05;run:n=512;scrub;run:n=512",
      "1735a90d4313abc3be2ea28540f54686",
      "e22cc3e0b7c8e8e7dce9b56510f16143" );
    ( "lease partition",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       partition:dur=300us,nodes=1;run:n=3000",
      "ea56c67f85775c4c99cc81e2dbf9fe02",
      "cbadebf6f4fb97d402b53210cce6231d" );
    ( "lease crash",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       crash:id=1;run:n=3000",
      "7a2a11bd014f9b66cd3c534a470f142a",
      "1de9bc4b86f3ba1a4a0e21d820ef25c9" );
    ( "multi-writer + shm-rpc",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns,writers=2;run:n=1000;\
       publish:pages=4;mwrite:rounds=8;shmrpc:calls=8;run:n=1000",
      "69972158aa97e32770a5c343e3fce4fa",
      "5044dd40061ee34ee4add5d8a577e0be" );
    ( "no-lease crash, replicas=0",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=0;run:n=1000;\
       crash:id=1;run:n=2000",
      "7cadc4678b20a60da3104ed7ae83f6a5",
      "94c0d17c6af0dcd34ff210b1bf1e48d5" );
    ( "no-lease crash, replicas=1",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=1000;\
       crash:id=1;run:n=2000",
      "ef42ef1d57a9cea9a274515aa3309572",
      "7705d71cc324c3cf1513ae3f8689f613" );
    ( "no-lease double crash, replicas=2",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=2;run:n=1000;\
       crash:id=1;run:n=1000;crash:id=1;run:n=1000",
      "85e8ad8fbbab0a75b41c7224c6c3c16f",
      "22aa271dc9584031c295270819b5645f" );
    ( "tiered rack ops: add, drain, rebalance",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us;\
       run:n=1000;add:cap=16777216;run:n=1000;drain:id=1;run:n=1000;\
       rebalance;run:n=1000",
      "f4a90d3c970c4ca197912c623780c26f",
      "6f0768506da46321bd3a7c37cccacb18" );
    ( "published segment + quota",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns;run:n=1000;\
       publish:pages=4;shared:rounds=8;run:n=1000;quota:t=1,bytes=1;\
       run:n=500",
      "5eb3c41aa5740c72d81975dfe89252d9",
      "a6167767ff0eeb54f3eab629ecf70bb9" );
    (* The bench/perf rack demo: heat policy over three nodes, one fast,
       a +2 us slow tier, 64 FMem frames per tenant. *)
    ( "rack demo",
      "setup:tenants=2,nodes=3,fmem=64,replicas=0,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256",
      "edd1c9ae9a779cc075d5091342b50b96",
      "8a95ab1eb447c0d3e370e88d1a525fea" );
    ( "rack demo + replica crash and rack ops",
      "setup:tenants=2,nodes=3,fmem=64,replicas=1,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256;\
       node-crash@3ms:id=1;add@2ms:cap=16777216;drain@4ms:id=2;rebalance@6ms",
      "e502b1ece0101fc2a5281eaf69bf73b0",
      "13b1153571c23d2115218df215cb5cc5" );
    ( "two writers + shm-rpc",
      "setup:tenants=2,fmem=1024,replicas=0,seed=7,scrub=0ns,verify=0,\
       workloads=kv-seq|kv-uniform,writers=2,seg=64,segops=256;\
       run:n=1000000000;shmrpc:calls=16",
      "367f8ea6a8a2beca0a1004df68e9015d",
      "3036bf6bb19f1c5a1dac9c73edcab545" );
    (* The two migrator-epoch paths that read cold pages.  A 3.5 MiB fast
       node fills up, so the heat policy demotes as well as promotes
       (100 promotions, 512 demotions); with 4 MiB nodes the centralized
       policy runs as the epoch policy and rebalances every epoch. *)
    ( "heat demotions under fast-tier pressure",
      "setup:tenants=2,nodes=3,cap=3670016,fmem=64,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us",
      "005824b3eca9f8e1074865018fec95d7",
      "24decfa3f59a973a36cd298daa3e22b3" );
    ( "centralized epoch policy",
      "setup:tenants=2,nodes=3,cap=4194304,fmem=64,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=centralized,fast=1,slowns=2us",
      "6e3c6f9524ac660202147c165ef09fb5",
      "30defd5b97317ffdc1f307e75f656850" );
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
      "812a71a35458f4bfebd2d0c9f825d02c",
      "f56ccd75639a7b612f37bbab46335d3c" );
    ( "ops",
      28,
      "setup:tenants=2,nodes=3,cap=134217728,gbps=0.5,replicas=1,fmem=256,\
       quantum=256,seed=534301,fseed=266499,scrub=200us,verify=1,\
       workloads=kv-uniform|kv-uniform,shares=3|4,quotas=0,policy=heat,\
       fast=2,slowns=500ns,hb=0ns,lease=50us,writers=1;run:n=512;\
       partition:dur=128us,nodes=2;rebalance;run:n=1792;migrate-epoch;\
       run:n=1024;drain:id=0;run:n=1024;add:cap=67108864;run:n=768",
      "67fe04fb3c5a5357f2ebb5674264921d",
      "92a433bb13ef1462ceee85bbfee703b8" );
    ( "shmem",
      692496,
      "setup:tenants=3,nodes=2,cap=134217728,gbps=0.5,replicas=1,fmem=128,\
       quantum=128,seed=278545,fseed=127149,scrub=200us,verify=1,\
       workloads=kv-zipf|kv-zipf|kv-uniform,shares=3|3|3,quotas=0,\
       policy=first-fit,fast=1,slowns=0ns,hb=0ns,lease=200us,writers=2;\
       run:n=1024;publish:pages=27;partition:dur=25us,nodes=0;\
       mwrite:rounds=27;run:n=1024;shared:rounds=15;run:n=1536;\
       mwrite:rounds=25;shmrpc:calls=12;mwrite:rounds=20",
      "cc4f0d3a3c496a9d8b3a6722a55f1f99",
      "8bc75afff35203d26ecc25cc2a0c421b" );
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
    ("redis-rand", "kona", "eec4a567e357181dc2686db24fb2e185", 1776554, (1024, 0, 0));
    ("redis-rand", "kona-vm", "e886c0494e7a563ce514f021aa752e2e", 2746854, (1024, 0, 0));
    ("redis-rand", "legoos", "16cdf24872d420a8d5e83d0ce18254e7", 2645529, (1024, 0, 0));
    ("redis-rand", "infiniswap", "975b2f274338a12903457f5db19d62a8", 4895529, (1024, 0, 0));
    ("redis-seq", "kona", "7c1f070548011d1c161ca05b98c340d7", 1868601, (1024, 0, 0));
    ("redis-seq", "kona-vm", "1aec00b4f13304e1027fb3d616432212", 2660901, (1024, 0, 0));
    ("redis-seq", "legoos", "4bff56e9a0c33f999317d12df162f445", 2559576, (1024, 0, 0));
    ("redis-seq", "infiniswap", "17c650e90c3729ec631ec0b16130ed9b", 4809576, (1024, 0, 0));
    ("linear-regression", "kona", "2f0d93d4e7be8207a35784bdf837a312", 1366530, (945, 0, 0));
    ("linear-regression", "kona-vm", "182f0a69ece2b1c01b7c261bc4821861", 1830780, (945, 0, 0));
    ("linear-regression", "legoos", "0644fd1b26a81901668d0edbe1158961", 1724051, (945, 0, 0));
    ("linear-regression", "infiniswap", "89cfeb0c387b18bd70b8b83a70ff02e3", 4094051, (945, 0, 0));
    ("histogram", "kona", "af67bbbed182b4656b912ec02c9c7cb2", 633303, (984, 0, 0));
    ("histogram", "kona-vm", "bbb284661c269b3d916e4f5d857da33b", 871203, (984, 0, 0));
    ("histogram", "legoos", "da2a838518cc63d2670b41852f3a29f7", 817163, (984, 0, 0));
    ("histogram", "infiniswap", "5ff0b440e4ea159032e785f5e3b36de2", 2017163, (984, 0, 0));
    ("page-rank", "kona", "f0432b7db4fc3d7c2cc1f392b6be603d", 431304, (512, 0, 0));
    ("page-rank", "kona-vm", "ddd5592a01a96e79d754ba20daa09b7d", 874504, (512, 0, 0));
    ("page-rank", "legoos", "d52345a5f03214fff3c46df7a57fe3f4", 824517, (512, 0, 0));
    ("page-rank", "infiniswap", "954e11a9f519ac6cc49f8e23031cfa9a", 1934517, (512, 0, 0));
    ("graph-coloring", "kona", "22ae90d172921b5ad46e24b9d351f797", 354814, (512, 0, 0));
    ("graph-coloring", "kona-vm", "375acd69c229c465091023296d1be5fd", 798014, (512, 0, 0));
    ("graph-coloring", "legoos", "d3e2c1cf84396744a1c983c0335447de", 748027, (512, 0, 0));
    ("graph-coloring", "infiniswap", "efd0097e6e1cf20bfc5d78c4536fe64d", 1858027, (512, 0, 0));
    ("connected-components", "kona", "85fd66b3f99076528766d1e870676f50", 417889, (512, 0, 0));
    ("connected-components", "kona-vm", "37f36533b2d0dc527a6c8e6a21050b41", 861089, (512, 0, 0));
    ("connected-components", "legoos", "3a959b788e4bc14422db349b3b643151", 811102, (512, 0, 0));
    ("connected-components", "infiniswap", "f7813c6ce8ffe7499d0845d697f4ca42", 1921102, (512, 0, 0));
    ("label-propagation", "kona", "5c916f8d9c0552d7aee0dba67f6887b1", 557213, (512, 0, 0));
    ("label-propagation", "kona-vm", "f7c243b980e61604fed05b50d5f16b21", 1121913, (512, 0, 0));
    ("label-propagation", "legoos", "0acf42d0c7a30f73b8e4d570a036538f", 1059767, (512, 0, 0));
    ("label-propagation", "infiniswap", "7263dc569cb447078ab071db7030a033", 2439767, (512, 0, 0));
    ("voltdb", "kona", "dddc993bd6211789abcd11f56585ddcc", 954367, (1024, 0, 0));
    ("voltdb", "kona-vm", "b7268e1bcaa9d009efd3d03696e0f2ad", 1600417, (1024, 0, 0));
    ("voltdb", "legoos", "102e0b31478587f19a4c7265277d329e", 1518006, (1024, 0, 0));
    ("voltdb", "infiniswap", "5c2f321ddf72548b8a50681c265228a3", 3348006, (1024, 0, 0));
    ("redis-zipf", "kona", "4c5754fe0a479e6d175393d7697f171e", 1476916, (1024, 0, 0));
    ("redis-zipf", "kona-vm", "57fa953744597549eaca8271df10164f", 2322116, (1024, 0, 0));
    ("redis-zipf", "legoos", "ab2d5343d597cd46a503d1ea6ca981a6", 2220791, (1024, 0, 0));
    ("redis-zipf", "infiniswap", "bfae74e401bbce7cb6ab54b1f7f37ac0", 4470791, (1024, 0, 0));
  ]

let render_run (workload, system, hub, elapsed_ns, (checked, mismatches, lost)) =
  Printf.sprintf "(%S, %S, %S, %d, (%d, %d, %d))" workload system hub elapsed_ns
    checked mismatches lost

let check_run ((workload, system, _, _, _) as expected) () =
  let r =
    System.run ~kona:Kona.Runtime.default_config
      ~vm:Kona_baselines.Vm_runtime.default_config (Workloads.find workload)
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
          run_corpus );
    ]
