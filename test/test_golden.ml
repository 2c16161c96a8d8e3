(* Golden telemetry fingerprints: a small corpus of canonical scenario
   specs and stepwise rack runs, each pinned to the digests it produced
   when it was committed.  Runs are deterministic, so any change to
   simulated behaviour — a refactor that moves one counter or one
   virtual nanosecond — shows up here as an explicit digest diff.

   Every entry pins two digests: the tenant digest covers each tenant's
   [tenant.<i>.*] telemetry, the hub digest the whole hub snapshot,
   including the rack-scoped [rack.*], [placement.*] and [coherence.*]
   series that tenant fingerprints never see.

   When a change is meant to alter behaviour, the failure message prints
   the entry with its expected and actual digests; review the diff and
   update the digests beside the entry. *)

open Kona_scenario
module Rack = Kona_rack.Rack
module Rack_ops = Kona_rack.Rack_ops
module Shm_rpc = Kona_shmem.Shm_rpc
module Snapshot = Kona_telemetry.Snapshot
module Json = Kona_telemetry.Json

(* (name, spec, tenant digest, hub digest).  Specs stay small (32 MiB
   nodes, short run slices) so the whole corpus executes in a few
   seconds. *)
let corpus =
  [
    ( "kv-seq, one tenant",
      "setup:tenants=1,cap=33554432,fmem=64;run:n=4000",
      "31110cd75b6c78014ee45b5ac3772fa0",
      "4c4bdf511767f92cf98b97b99e0edbc5" );
    ( "two-tenant heat-policy rack",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,seed=7,scrub=0ns,\
       verify=0,workloads=kv-zipf|kv-uniform,policy=heat;run:n=3000;\
       migrate-epoch;run:n=1000",
      "7f33f7f764498ae5ab3f0fe02356dbab",
      "72d2137eaeb5f8daeddab1feb21b82fb" );
    ( "corruption + scrub",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=512;\
       bit-flip:p=0.2;torn-write:p=0.05;run:n=512;scrub;run:n=512",
      "1735a90d4313abc3be2ea28540f54686",
      "d787062be3914dc07a5c6f6388c25125" );
    ( "lease partition",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       partition:dur=300us,nodes=1;run:n=3000",
      "ea56c67f85775c4c99cc81e2dbf9fe02",
      "74f5772e450d1f43b309899c7536ffab" );
    ( "lease crash",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       crash:id=1;run:n=3000",
      "7a2a11bd014f9b66cd3c534a470f142a",
      "663dca68041a82beed7e7f0d59882da1" );
    ( "multi-writer + shm-rpc",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns,writers=2;run:n=1000;\
       publish:pages=4;mwrite:rounds=8;shmrpc:calls=8;run:n=1000",
      "69972158aa97e32770a5c343e3fce4fa",
      "43433ee7fd3317c9d10b42d4f5fa34c0" );
    ( "no-lease crash, replicas=0",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=0;run:n=1000;\
       crash:id=1;run:n=2000",
      "7cadc4678b20a60da3104ed7ae83f6a5",
      "5ee859da3fc7e29970bd79dc762233ee" );
    ( "no-lease crash, replicas=1",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=1000;\
       crash:id=1;run:n=2000",
      "ef42ef1d57a9cea9a274515aa3309572",
      "981c4c9b80554f8e991640820bd49258" );
    ( "no-lease double crash, replicas=2",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=2;run:n=1000;\
       crash:id=1;run:n=1000;crash:id=1;run:n=1000",
      "85e8ad8fbbab0a75b41c7224c6c3c16f",
      "67856d396e3c60bc8052bf6f15d884ab" );
    ( "tiered rack ops: add, drain, rebalance",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,scrub=0ns,verify=0,\
       workloads=kv-zipf|kv-uniform,policy=heat,fast=1,slowns=2us;\
       run:n=1000;add:cap=16777216;run:n=1000;drain:id=1;run:n=1000;\
       rebalance;run:n=1000",
      "f4a90d3c970c4ca197912c623780c26f",
      "bcffb1008e99fd8cc4b840a77db34b92" );
    ( "published segment + quota",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns;run:n=1000;\
       publish:pages=4;shared:rounds=8;run:n=1000;quota:t=1,bytes=1;\
       run:n=500",
      "5eb3c41aa5740c72d81975dfe89252d9",
      "2b6b47ec00209c9a39150c7e6dbb1e67" );
  ]

let tenant_digest (r : Rack.result) =
  Array.to_list r.Rack.r_tenants
  |> List.map (fun (tr : Rack.tenant_result) -> tr.Rack.t_fingerprint)
  |> String.concat "|" |> Digest.string |> Digest.to_hex

let hub_digest (r : Rack.result) =
  Digest.to_hex
    (Digest.string (Json.to_string (Snapshot.to_json r.Rack.r_snapshot)))

let check_digests name ~what ~tenant ~hub (r : Rack.result) =
  let check kind expected actual =
    if actual <> expected then
      Alcotest.failf
        "golden %s digest mismatch for %s\n  %s\n  expected: %s\n  actual:   %s"
        kind name what expected actual
  in
  check "tenant" tenant (tenant_digest r);
  check "hub" hub (hub_digest r)

let check_episode name ~what ~tenant ~hub spec =
  let o = Episode.execute spec in
  (match o.Episode.oc_violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: violation [%s] %s" name v.Invariants.inv
        v.Invariants.detail);
  match o.Episode.oc_result with
  | None -> Alcotest.failf "%s: episode did not finish" name
  | Some r -> check_digests name ~what ~tenant ~hub r

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
      "ce7df64c1c0203dbdcf9dde3e38c720c" );
    ( "ops",
      28,
      "setup:tenants=2,nodes=3,cap=134217728,gbps=0.5,replicas=1,fmem=256,\
       quantum=256,seed=534301,fseed=266499,scrub=200us,verify=1,\
       workloads=kv-uniform|kv-uniform,shares=3|4,quotas=0,policy=heat,\
       fast=2,slowns=500ns,hb=0ns,lease=50us,writers=1;run:n=512;\
       partition:dur=128us,nodes=2;rebalance;run:n=1792;migrate-epoch;\
       run:n=1024;drain:id=0;run:n=1024;add:cap=67108864;run:n=768",
      "67fe04fb3c5a5357f2ebb5674264921d",
      "3dab6cfd24805c28f680df836192b6de" );
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
      "d39fafe5ddad87c25e714a56ddd41346" );
  ]

let check_gen (family, seed, line, tenant, hub) () =
  let spec = Gen.generate ~seed ~ops:10 in
  Alcotest.(check string)
    (Printf.sprintf "%s seed %d renders" family seed)
    line (Spec.to_string spec);
  check_episode family
    ~what:(Printf.sprintf "Gen.generate ~seed:%d ~ops:10" seed)
    ~tenant ~hub spec

(* Stepwise rack runs: the woven shared segment and scheduled rack ops
   are reachable only through a [Rack.config], never through a spec. *)

(* The bench/perf rack demo: heat policy over three nodes, one fast, a
   +2 us slow tier, 64 FMem frames per tenant. *)
let demo_config =
  {
    Rack.default_config with
    Rack.nodes = 3;
    policy = "heat";
    fast_nodes = 1;
    slow_extra_ns = 2000;
    runtime =
      { Rack.default_config.Rack.runtime with Kona.Runtime.fmem_pages = 64 };
  }

let rack_tenants slugs =
  List.mapi
    (fun i slug ->
      {
        Rack.name = Printf.sprintf "t%d-%s" i slug;
        workload = slug;
        bw_share = 1;
        mem_quota = None;
        seed = 7 + i;
      })
    slugs

let run_rack ?(after_replay = ignore) cfg slugs () =
  let e = Rack.start cfg (rack_tenants slugs) in
  while Rack.step e > 0 do
    ()
  done;
  after_replay e;
  Rack.finish e

(* (name, run, tenant digest, hub digest) *)
let rack_corpus =
  [
    ( "rack demo",
      run_rack demo_config [ "kv-zipf"; "kv-uniform" ],
      "edd1c9ae9a779cc075d5091342b50b96",
      "8a95ab1eb447c0d3e370e88d1a525fea" );
    ( "rack demo + replica crash and rack ops",
      run_rack
        {
          demo_config with
          Rack.replicas = 1;
          faults = Kona_faults.Fault_spec.parse_exn "node-crash@3ms:id=1";
          ops =
            Rack_ops.parse_exn
              "add@2ms:cap=16777216;drain@4ms:id=2;rebalance@6ms";
        }
        [ "kv-zipf"; "kv-uniform" ],
      "e502b1ece0101fc2a5281eaf69bf73b0",
      "13b1153571c23d2115218df215cb5cc5" );
    ( "two writers + shm-rpc",
      run_rack
        ~after_replay:(fun e ->
          ignore (Shm_rpc.run e ~client:1 ~server:0 ~calls:16 ()))
        { Rack.default_config with Rack.shared_writers = 2 }
        [ "kv-seq"; "kv-uniform" ],
      "367f8ea6a8a2beca0a1004df68e9015d",
      "3036bf6bb19f1c5a1dac9c73edcab545" );
  ]

let check_rack (name, run, tenant, hub) () =
  check_digests name ~what:"stepwise rack run" ~tenant ~hub (run ())

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
      ( "golden-rack",
        List.map
          (fun ((name, _, _, _) as entry) ->
            Alcotest.test_case name `Quick (check_rack entry))
          rack_corpus );
    ]
