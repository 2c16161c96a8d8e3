(* Shared-memory RPC ring (lib/shmem): call accounting, doorbell
   ownership ping-pong, determinism across fresh engines, and ring
   geometry validation. *)

module Rack = Kona_rack.Rack
module Shm_rpc = Kona_shmem.Shm_rpc
module Workloads = Kona_workloads.Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let tenants =
  [
    { Rack.name = "server"; workload = "kv-seq"; bw_share = 1;
      mem_quota = None; seed = 42 };
    { Rack.name = "client"; workload = "kv-uniform"; bw_share = 1;
      mem_quota = None; seed = 43 };
  ]

(* An idle rack: no pre-published segment, no replayed traffic — the
   ring is the only coherence activity, so the counters below are
   attributable to it alone. *)
let engine () =
  Rack.start
    { Rack.default_config with Rack.scale = Workloads.Smoke; shared_pages = 0 }
    tenants

let test_ring_stats () =
  let e = engine () in
  let s = Shm_rpc.run e ~client:1 ~server:0 ~calls:32 () in
  check_int "every call completed" 32 s.Shm_rpc.s_calls;
  check_bool "doorbell claims recalled dirty lines" true
    (s.Shm_rpc.s_handoffs > 0);
  check_bool "recalls invalidated the previous writer" true
    (s.Shm_rpc.s_invalidations > 0);
  check_bool "calls accumulated wire time" true (s.Shm_rpc.s_total_ns > 0);
  check_bool "mean bounded by max" true
    (Shm_rpc.mean_ns s <= s.Shm_rpc.s_max_ns);
  check_int "home directory internally consistent" 0
    (List.length (Rack.coherence_audit e))

let test_doorbell_ownership () =
  let e = engine () in
  let t = Shm_rpc.create e ~client:1 ~server:0 () in
  ignore (Shm_rpc.call t ~payload:0);
  (* Within one call the head doorbell is written by the client (ring)
     then claimed by the server, and the tail doorbell by the server
     (completion) then claimed by the client — so after the call each
     doorbell is owned by its claimer, proof the RFOs moved ownership
     rather than writing through a stale copy. *)
  let head = 1 and tail = 2 in
  Alcotest.(check (option int))
    "server claimed the request doorbell" (Some 0)
    (Rack.shared_owner e ~line:head);
  Alcotest.(check (option int))
    "client claimed the completion doorbell" (Some 1)
    (Rack.shared_owner e ~line:tail);
  ignore (Shm_rpc.call t ~payload:1);
  Alcotest.(check (option int))
    "ownership ping-pongs back the same way" (Some 0)
    (Rack.shared_owner e ~line:head)

let test_determinism () =
  let stats () = Shm_rpc.run (engine ()) ~client:1 ~server:0 ~calls:64 () in
  let a = stats () and b = stats () in
  check_bool "fresh engines give bit-identical ring stats" true (a = b)

let test_validation () =
  let e = engine () in
  check_bool "client = server" true
    (raises (fun () -> Shm_rpc.create e ~client:0 ~server:0 ()));
  check_bool "tenant out of range" true
    (raises (fun () -> Shm_rpc.create e ~client:2 ~server:0 ()));
  check_bool "non-positive geometry" true
    (raises (fun () -> Shm_rpc.create e ~req_lines:0 ~client:1 ~server:0 ()));
  check_bool "ring larger than the shared page" true
    (raises (fun () ->
         Shm_rpc.create e ~req_lines:8 ~resp_lines:8 ~client:1 ~server:0 ()))

let () =
  Alcotest.run "kona_shmem"
    [
      ( "shm-rpc",
        [
          Alcotest.test_case "ring stats" `Quick test_ring_stats;
          Alcotest.test_case "doorbell ownership" `Quick
            test_doorbell_ownership;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "validates geometry" `Quick test_validation;
        ] );
    ]
