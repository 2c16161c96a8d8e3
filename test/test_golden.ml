(* Golden telemetry fingerprints: a small corpus of canonical scenario
   specs, each pinned to the digest {!Kona_scenario.Episode.execute}
   produced when it was committed.  Episodes are deterministic, so any
   change to simulated behaviour — a refactor that moves one counter or
   one virtual nanosecond — shows up here as an explicit digest diff.

   When a change is meant to alter behaviour, the failure message prints
   the spec with its expected and actual digests; review the diff and
   update the digest beside the spec. *)

open Kona_scenario

(* (name, spec, digest).  Specs stay small (32 MiB nodes, short run
   slices) so the whole corpus executes in a few seconds. *)
let corpus =
  [
    ( "kv-seq, one tenant",
      "setup:tenants=1,cap=33554432,fmem=64;run:n=4000",
      "31110cd75b6c78014ee45b5ac3772fa0" );
    ( "two-tenant heat-policy rack",
      "setup:tenants=2,nodes=3,cap=33554432,fmem=64,seed=7,scrub=0ns,\
       verify=0,workloads=kv-zipf|kv-uniform,policy=heat;run:n=3000;\
       migrate-epoch;run:n=1000",
      "7f33f7f764498ae5ab3f0fe02356dbab" );
    ( "corruption + scrub",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=512;\
       bit-flip:p=0.2;torn-write:p=0.05;run:n=512;scrub;run:n=512",
      "1735a90d4313abc3be2ea28540f54686" );
    ( "lease partition",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       partition:dur=300us,nodes=1;run:n=3000",
      "ea56c67f85775c4c99cc81e2dbf9fe02" );
    ( "lease crash",
      "setup:tenants=1,cap=33554432,fmem=64,hb=10us,lease=50us;run:n=1000;\
       crash:id=1;run:n=3000",
      "7a2a11bd014f9b66cd3c534a470f142a" );
    ( "multi-writer + shm-rpc",
      "setup:tenants=2,cap=33554432,fmem=64,scrub=0ns,writers=2;run:n=1000;\
       publish:pages=4;mwrite:rounds=8;shmrpc:calls=8;run:n=1000",
      "69972158aa97e32770a5c343e3fce4fa" );
    ( "no-lease crash, replicas=0",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=0;run:n=1000;\
       crash:id=1;run:n=2000",
      "7cadc4678b20a60da3104ed7ae83f6a5" );
    ( "no-lease crash, replicas=1",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=1;run:n=1000;\
       crash:id=1;run:n=2000",
      "ef42ef1d57a9cea9a274515aa3309572" );
    ( "no-lease double crash, replicas=2",
      "setup:tenants=1,cap=33554432,fmem=64,replicas=2;run:n=1000;\
       crash:id=1;run:n=1000;crash:id=1;run:n=1000",
      "85e8ad8fbbab0a75b41c7224c6c3c16f" );
  ]

let check_entry (name, spec, expected) () =
  let o = Episode.execute (Spec.parse_exn spec) in
  (match o.Episode.oc_violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: violation [%s] %s" name v.Invariants.inv
        v.Invariants.detail);
  let actual = o.Episode.oc_fingerprint in
  if actual <> expected then
    Alcotest.failf
      "golden fingerprint mismatch for %s\n  spec:     %s\n  expected: %s\n  actual:   %s"
      name spec expected actual

let () =
  Alcotest.run "kona_golden"
    [
      ( "golden",
        List.map
          (fun ((name, _, _) as entry) ->
            Alcotest.test_case name `Quick (check_entry entry))
          corpus );
    ]
