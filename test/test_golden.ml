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
      "56699dcccad8dfd9e0f2dd84007d4d88",
      "e1aa05516dc4f01df4313357cb86847b" );
    ( "two-tenant heat-policy rack",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,seed=7,scrub=0ns,\
       verify=0,workloads=kv-zipf|kv-uniform,policy=heat;run:n=3000;\
       migrate-epoch;run:n=1000",
      "e37a16e8da8d57afda7d270384a4823b",
      "5588fee26adaaceca8e96a296c0413da" );
    ( "corruption + scrub",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=512;\
       bit-flip:p=0.2;torn-write:p=0.05;run:n=512;scrub;run:n=512",
      "3eaae4fbb064a91008fd6b89e78f64a5",
      "fa2877873774e6dde848b9c0db0c5289" );
    ( "lease partition",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       partition:dur=300us,nodes=1;run:n=3000",
      "6e340476245a13b5887dddd6e51aa61d",
      "53729a821d3457f511d5cac58c3eac76" );
    ( "lease crash",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       crash:id=1;run:n=3000",
      "a67b4c3cee61f9dc3a529600fd33ecc8",
      "5ca7f3e45375daeb73e037ca062e70aa" );
    ( "multi-writer + shm-rpc",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns,writers=2;run:n=1000;\
       publish:pages=4;mwrite:rounds=8;shmrpc:calls=8;run:n=1000",
      "dac8de802484acd3e7303ffc2985b59f",
      "1da322bd504eceebfac7e692b8a1be5f" );
    ( "no-lease crash, replicas=0",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=0;run:n=1000;\
       crash:id=1;run:n=2000",
      "b98b88d62978c67443c0fcc2ecc0e2ab",
      "c8adf8478c4d7ee28e6e0fd2e7989c09" );
    ( "no-lease crash, replicas=1",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=1000;\
       crash:id=1;run:n=2000",
      "e25ba67e27cc1a2d9da9538d7e3b32c0",
      "e59aae4fd5a1ec7aa3954cd689866cb0" );
    ( "no-lease double crash, replicas=2",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=2;run:n=1000;\
       crash:id=1;run:n=1000;crash:id=1;run:n=1000",
      "358acfc33f93ca9cea4814af1a497dfd",
      "e7e32754b105fe686a5e6533ddd5d519" );
    ( "tiered rack ops: add, drain, rebalance",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us;\
       run:n=1000;add:cap=16777216;run:n=1000;drain:id=1;run:n=1000;\
       rebalance;run:n=1000",
      "46a5cf6477d7fd755b21837caa7b01ce",
      "9c7b31212079ffac1afaad8cd835f259" );
    ( "published segment + quota",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns;run:n=1000;\
       publish:pages=4;shared:rounds=8;run:n=1000;quota:t=1,bytes=1;\
       run:n=500",
      "d5189f6f02927cf014f4b0f43362c800",
      "177bac33fed512bea7af3b6e0448bcce" );
    (* The bench/perf rack demo: heat policy over three nodes, one fast,
       a +2 us slow tier, 64 FMem frames per tenant. *)
    ( "rack demo",
      "setup:tenants=2,nodes=3,fmem=64,replicas=0,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256",
      "08e058b3a3a0e23004a874037501f810",
      "73cfb64a40aea95361a08d7fc1e93dbc" );
    ( "rack demo + replica crash and rack ops",
      "setup:tenants=2,nodes=3,fmem=64,replicas=1,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256;\
       node-crash@3ms:id=1;add@2ms:cap=16777216;drain@4ms:id=2;rebalance@6ms",
      "0697e69125977a32371e95f44891ae0b",
      "991b9ed78dc18ceecd89f25a55005955" );
    ( "two writers + shm-rpc",
      "setup:tenants=2,fmem=1024,replicas=0,seed=7,scrub=0ns,verify=0,\
       workloads=kv-seq|kv-uniform,writers=2,seg=64,segops=256;\
       run:n=1000000000;shmrpc:calls=16",
      "a8aa53831473bae0e7b9c3de25a5e715",
      "2f22aed5fdaf9e74ab6ef7e7f6a92119" );
    (* The two migrator-epoch paths that read cold pages.  A 3.5 MiB fast
       node fills up, so the heat policy demotes as well as promotes
       (100 promotions, 512 demotions); with 4 MiB nodes the centralized
       policy runs as the epoch policy and rebalances every epoch. *)
    ( "heat demotions under fast-tier pressure",
      "setup:tenants=2,nodes=3,cap=3670016,fmem=64,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us",
      "c6d8dc7f7430f428df5bbf72f03c5c12",
      "c5d3b6316b6351de1d375f56d4de1de3" );
    ( "centralized epoch policy",
      "setup:tenants=2,nodes=3,cap=4194304,fmem=64,seed=7,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=centralized,fast=1,slowns=2us",
      "3490cdad0ee235d5a2ea3aa2b37abe74",
      "4b1812aca19c08075bc93857c9815fdb" );
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
      "98108dd34be2b0c2c7ef49a10275ae06",
      "90ace28d61686164114089d2bbfa3061" );
    ( "ops",
      28,
      "setup:tenants=2,nodes=3,cap=134217728,gbps=0.5,replicas=1,fmem=256,\
       quantum=256,seed=534301,fseed=266499,scrub=200us,verify=1,\
       workloads=kv-uniform|kv-uniform,shares=3|4,quotas=0,policy=heat,\
       fast=2,slowns=500ns,hb=0ns,lease=50us,writers=1;run:n=512;\
       partition:dur=128us,nodes=2;rebalance;run:n=1792;migrate-epoch;\
       run:n=1024;drain:id=0;run:n=1024;add:cap=67108864;run:n=768",
      "3f564170b7f27162adb8f13f521edadf",
      "49912ab872a55ca95212c3140df6384d" );
    ( "shmem",
      692496,
      "setup:tenants=3,nodes=2,cap=134217728,gbps=0.5,replicas=1,fmem=128,\
       quantum=128,seed=278545,fseed=127149,scrub=200us,verify=1,\
       workloads=kv-zipf|kv-zipf|kv-uniform,shares=3|3|3,quotas=0,\
       policy=first-fit,fast=1,slowns=0ns,hb=0ns,lease=200us,writers=2;\
       run:n=1024;publish:pages=27;partition:dur=25us,nodes=0;\
       mwrite:rounds=27;run:n=1024;shared:rounds=15;run:n=1536;\
       mwrite:rounds=25;shmrpc:calls=12;mwrite:rounds=20",
      "9a78de601c449712f60383aa60e7e3e3",
      "a0c88b1736c84ac665b5552f846936a6" );
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
    ("redis-rand", "kona", "578a8d89732a91d0be18564000a1cfd1", 1776554, (1024, 0, 0));
    ("redis-rand", "kona-vm", "e886c0494e7a563ce514f021aa752e2e", 2746854, (1024, 0, 0));
    ("redis-rand", "legoos", "16cdf24872d420a8d5e83d0ce18254e7", 2645529, (1024, 0, 0));
    ("redis-rand", "infiniswap", "975b2f274338a12903457f5db19d62a8", 4895529, (1024, 0, 0));
    ("redis-seq", "kona", "7f40b4f43a448d901daebdbd50007f1c", 1868601, (1024, 0, 0));
    ("redis-seq", "kona-vm", "1aec00b4f13304e1027fb3d616432212", 2660901, (1024, 0, 0));
    ("redis-seq", "legoos", "4bff56e9a0c33f999317d12df162f445", 2559576, (1024, 0, 0));
    ("redis-seq", "infiniswap", "17c650e90c3729ec631ec0b16130ed9b", 4809576, (1024, 0, 0));
    ("linear-regression", "kona", "b6004c024f2ee8070ed191abd030bd84", 1366530, (945, 0, 0));
    ("linear-regression", "kona-vm", "182f0a69ece2b1c01b7c261bc4821861", 1830780, (945, 0, 0));
    ("linear-regression", "legoos", "0644fd1b26a81901668d0edbe1158961", 1724051, (945, 0, 0));
    ("linear-regression", "infiniswap", "89cfeb0c387b18bd70b8b83a70ff02e3", 4094051, (945, 0, 0));
    ("histogram", "kona", "fdd088cc93142d4c1f9a8e9cb0c06370", 633303, (984, 0, 0));
    ("histogram", "kona-vm", "bbb284661c269b3d916e4f5d857da33b", 871203, (984, 0, 0));
    ("histogram", "legoos", "da2a838518cc63d2670b41852f3a29f7", 817163, (984, 0, 0));
    ("histogram", "infiniswap", "5ff0b440e4ea159032e785f5e3b36de2", 2017163, (984, 0, 0));
    ("page-rank", "kona", "58bacbb32ecf587b9ff70c8c63a70182", 431304, (512, 0, 0));
    ("page-rank", "kona-vm", "ddd5592a01a96e79d754ba20daa09b7d", 874504, (512, 0, 0));
    ("page-rank", "legoos", "d52345a5f03214fff3c46df7a57fe3f4", 824517, (512, 0, 0));
    ("page-rank", "infiniswap", "954e11a9f519ac6cc49f8e23031cfa9a", 1934517, (512, 0, 0));
    ("graph-coloring", "kona", "a7f788e57cd3b08abf3c51b715e84135", 354814, (512, 0, 0));
    ("graph-coloring", "kona-vm", "375acd69c229c465091023296d1be5fd", 798014, (512, 0, 0));
    ("graph-coloring", "legoos", "d3e2c1cf84396744a1c983c0335447de", 748027, (512, 0, 0));
    ("graph-coloring", "infiniswap", "efd0097e6e1cf20bfc5d78c4536fe64d", 1858027, (512, 0, 0));
    ("connected-components", "kona", "0c906bf0daf4224b71f84eb6a383047e", 417889, (512, 0, 0));
    ("connected-components", "kona-vm", "37f36533b2d0dc527a6c8e6a21050b41", 861089, (512, 0, 0));
    ("connected-components", "legoos", "3a959b788e4bc14422db349b3b643151", 811102, (512, 0, 0));
    ("connected-components", "infiniswap", "f7813c6ce8ffe7499d0845d697f4ca42", 1921102, (512, 0, 0));
    ("label-propagation", "kona", "33a02b6422e0912b538691e5b1384f97", 557213, (512, 0, 0));
    ("label-propagation", "kona-vm", "f7c243b980e61604fed05b50d5f16b21", 1121913, (512, 0, 0));
    ("label-propagation", "legoos", "0acf42d0c7a30f73b8e4d570a036538f", 1059767, (512, 0, 0));
    ("label-propagation", "infiniswap", "7263dc569cb447078ab071db7030a033", 2439767, (512, 0, 0));
    ("voltdb", "kona", "b1e7decfc8c29f192da387e3267a0889", 954367, (1024, 0, 0));
    ("voltdb", "kona-vm", "b7268e1bcaa9d009efd3d03696e0f2ad", 1600417, (1024, 0, 0));
    ("voltdb", "legoos", "102e0b31478587f19a4c7265277d329e", 1518006, (1024, 0, 0));
    ("voltdb", "infiniswap", "5c2f321ddf72548b8a50681c265228a3", 3348006, (1024, 0, 0));
    ("redis-zipf", "kona", "c533f5fbd77f0ead9895e31fea87ec57", 1476916, (1024, 0, 0));
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
