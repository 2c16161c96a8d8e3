(* Tests for kona_rack: the per-node WFQ ingress scheduler and the
   multi-tenant rack simulation (contention, shared segments, quotas,
   determinism, fault composition). *)

open Kona_rack
module Rack_controller = Kona.Rack_controller
module Units = Kona_util.Units
module Fault_spec = Kona_faults.Fault_spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Wfq *)

let test_wfq_idle_no_delay () =
  let w = Wfq.create ~gbps:1.0 ~weights:[| 1; 1 |] in
  check_int "idle link admits with zero delay" 0
    (Wfq.admit w ~tenant:0 ~bytes:4096 ~now:0);
  (* A message arriving after the link drained (4096 B at 8 ns/B) is
     also free. *)
  let later = (8 * 4096) + 10 in
  check_int "drained link admits with zero delay" 0
    (Wfq.admit w ~tenant:1 ~bytes:4096 ~now:later);
  check_int "no saturated admits" 0 (Wfq.saturated_admits w);
  check_int "two admits" 2 (Wfq.total_admits w)

let test_wfq_wire_time () =
  (* A message queued behind another on a busy link waits out the
     first one's wire time; 1 Gbit/s is 8 ns per byte. *)
  let queued_behind ~gbps ~bytes =
    let w = Wfq.create ~gbps ~weights:[| 1 |] in
    ignore (Wfq.admit w ~tenant:0 ~bytes ~now:0 : int);
    Wfq.admit w ~tenant:0 ~bytes:64 ~now:0
  in
  check_int "8 ns/byte at 1 Gbit/s" (8 * 4096) (queued_behind ~gbps:1.0 ~bytes:4096);
  check_int "non-empty floors at 1 ns" 1 (queued_behind ~gbps:1000.0 ~bytes:1);
  check_int "empty message is free" 0 (queued_behind ~gbps:1.0 ~bytes:0)

(* A tenant's achieved ingress bandwidth (Gbit/s) over its contended
   intervals, as [Rack] reports it per tenant. *)
let achieved_gbps w ~tenant =
  let s = Wfq.tenant_stats w ~tenant in
  if s.Wfq.contended_ns = 0 then 0.0
  else 8.0 *. float_of_int s.Wfq.contended_bytes /. float_of_int s.Wfq.contended_ns

let test_wfq_weighted_shares () =
  let w = Wfq.create ~gbps:1.0 ~weights:[| 2; 1 |] in
  (* Both tenants keep the link saturated from t=0: all admits after the
     first are contended, and the achieved rates must split 2:1. *)
  for _ = 1 to 200 do
    ignore (Wfq.admit w ~tenant:0 ~bytes:4096 ~now:0);
    ignore (Wfq.admit w ~tenant:1 ~bytes:4096 ~now:0)
  done;
  let a0 = achieved_gbps w ~tenant:0
  and a1 = achieved_gbps w ~tenant:1 in
  check_bool "both tenants contended" true (a0 > 0.0 && a1 > 0.0);
  let ratio = a0 /. a1 in
  check_bool
    (Printf.sprintf "achieved ratio %.3f tracks the 2:1 weights" ratio)
    true
    (ratio > 1.99 && ratio < 2.01);
  let s1 = Wfq.tenant_stats w ~tenant:1 in
  check_bool "lighter tenant queues longer" true
    (s1.Wfq.delay_ns > (Wfq.tenant_stats w ~tenant:0).Wfq.delay_ns);
  check_bool "backlog accumulated" true (Wfq.peak_backlog_ns w > 0)

(* Property: for any rack of >= 3 tenants with arbitrary weights, a
   saturated link divides its bandwidth in proportion to the weights.
   Every tenant offers identical demand from t=0, so each pairwise
   achieved ratio must land within 10% of the weight ratio. *)
let wfq_fairness_prop =
  let gen =
    QCheck2.Gen.(list_size (int_range 3 6) (int_range 1 8))
  in
  QCheck2.Test.make ~count:50 ~name:"wfq shares track arbitrary weights" gen
    (fun weights ->
      let w = Wfq.create ~gbps:1.0 ~weights:(Array.of_list weights) in
      let n = List.length weights in
      for _ = 1 to 300 do
        for t = 0 to n - 1 do
          ignore (Wfq.admit w ~tenant:t ~bytes:4096 ~now:0)
        done
      done;
      let achieved = Array.init n (fun t -> achieved_gbps w ~tenant:t) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let want =
            float_of_int (List.nth weights i) /. float_of_int (List.nth weights j)
          in
          let got = achieved.(i) /. achieved.(j) in
          if abs_float ((got /. want) -. 1.0) > 0.10 then ok := false
        done
      done;
      !ok)

let test_wfq_rejects_bad_config () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "empty weights" true
    (raises (fun () -> Wfq.create ~gbps:1.0 ~weights:[||]));
  check_bool "zero weight" true
    (raises (fun () -> Wfq.create ~gbps:1.0 ~weights:[| 1; 0 |]));
  check_bool "non-positive rate" true
    (raises (fun () -> Wfq.create ~gbps:0.0 ~weights:[| 1 |]))

(* ------------------------------------------------------------------ *)
(* Rack *)

let tenants ?(quota0 = None) ?(shares = (2, 1)) () =
  let s0, s1 = shares in
  [
    { Rack.name = "t0"; workload = "kv-uniform"; bw_share = s0;
      mem_quota = quota0; seed = 42 };
    { Rack.name = "t1"; workload = "page-rank"; bw_share = s1;
      mem_quota = None; seed = 43 };
  ]

(* The rack's replication degree and fault plan live in the runtime
   base every tenant starts from. *)
let runtime ?(replicas = 0) ?(faults = []) () =
  { Kona.Runtime.default_config with Kona.Runtime.replicas; faults }

let cfg ?replicas ?faults () =
  { Rack.default_config with Rack.runtime = runtime ?replicas ?faults () }

let test_rack_two_tenants () =
  let r = Rack.run (cfg ()) (tenants ()) in
  let t0 = r.Rack.r_tenants.(0) and t1 = r.Rack.r_tenants.(1) in
  check_bool "tenant 0 ran" true (t0.Rack.t_accesses > 0);
  check_bool "tenant 1 ran" true (t1.Rack.t_accesses > 0);
  check_int "tenant 0 converged" 0 t0.Rack.t_mismatches;
  check_int "tenant 1 converged" 0 t1.Rack.t_mismatches;
  (* The 1 Gbit/s links saturate under two smoke tenants... *)
  check_bool "links saturated" true (r.Rack.r_saturated_admits > 0);
  (* ...and the achieved bandwidth split tracks the 2:1 shares. *)
  let ratio = t0.Rack.t_achieved_gbps /. t1.Rack.t_achieved_gbps in
  check_bool
    (Printf.sprintf "achieved ratio %.2f within 20%% of 2:1" ratio)
    true
    (ratio > 1.6 && ratio < 2.4);
  (* Shared segment: the writer's evictions recalled the reader. *)
  check_bool "publisher wrote the segment" true (r.Rack.r_shared_writes > 0);
  check_bool "reader read the segment" true (r.Rack.r_shared_reads > 0);
  check_bool "writer evictions snooped the rack directory" true
    (r.Rack.r_snoops > 0);
  check_bool "reader received invalidations" true
    (t1.Rack.t_invalidations > 0);
  check_int "no crashes without faults" 0 r.Rack.r_node_crashes

(* The read-mostly segment's sharer sets: the publisher's dirty eviction
   of a segment page recalls exactly the tenants that fetched it since
   the last such eviction, never the publisher, and forgets the page's
   set.  The recalls go out in ascending tenant order; readers' copies
   are clean, so their invalidations commute and the order shows only in
   the pinned fingerprints. *)
let test_rack_sharer_recall () =
  let cfg = { Rack.default_config with Rack.shared_pages = 2; shared_ops = 0 } in
  let e =
    Rack.start cfg
      (List.init 3 (fun i ->
           { Rack.name = Printf.sprintf "t%d" i; workload = "kv-seq";
             bw_share = 1; mem_quota = None; seed = 42 + i }))
  in
  let rt i = Rack.runtime e ~tenant:i in
  let recalled () =
    List.init 3 (fun i -> Kona.Runtime.count (rt i) "coherence.invalidations")
  in
  (* Page 0: the publisher fetches and writes it, tenants 1 and 2 fetch
     it — three demand fetches and one shared write, four fills. *)
  Rack.shared_round e;
  Kona.Runtime.drain (rt 0);
  Alcotest.(check (list int))
    "the dirty eviction recalled both readers once, the publisher never"
    [ 0; 1; 1 ] (recalled ());
  (* The publisher alone fetches and dirties page 0 again. *)
  Rack.shared_line_write e ~tenant:0 ~line:0 ~payload:'x';
  Kona.Runtime.drain (rt 0);
  Alcotest.(check (list int))
    "the page's set was forgotten: no reader recalled again" [ 0; 1; 1 ]
    (recalled ());
  let r = Rack.finish e in
  let count name =
    Option.value ~default:(-1)
      (Kona_telemetry.Snapshot.counter_value r.Rack.r_snapshot name)
  in
  check_int "four demand fetches of segment pages" 4
    (count "rack.sharer_fills");
  check_int "fills: the fetches and the one shared write" 5
    (count "rack.dir.fills");
  check_int "snoops: three sharers, then the publisher alone" 4
    (count "rack.dir.snoops");
  check_int "r_snoops reads the same count" 4 r.Rack.r_snoops;
  check_int "one recall message per remote reader" 2
    (count "rack.invalidations_sent");
  Array.iter
    (fun t -> check_int "converged" 0 t.Rack.t_mismatches)
    r.Rack.r_tenants

let test_rack_determinism () =
  let fingerprints () =
    let r = Rack.run (cfg ()) (tenants ()) in
    Array.map (fun t -> t.Rack.t_fingerprint) r.Rack.r_tenants
  in
  let a = fingerprints () and b = fingerprints () in
  Alcotest.(check (array string))
    "same seeds give bit-identical per-tenant counters" a b

let test_rack_quota_rejection () =
  (* One slab's worth of quota cannot back a smoke heap. *)
  let quota0 = Some (Units.mib 1) in
  match Rack.run (cfg ()) (tenants ~quota0 ()) with
  | _ -> Alcotest.fail "tenant 0 must overrun its one-slab quota"
  | exception Rack_controller.Quota_exceeded { tenant; quota; used; requested } ->
      Alcotest.(check string) "names the tenant" "t0" tenant;
      check_bool "cap reported" true (quota > 0);
      check_bool "rejected once full" true (used + requested > quota)

let test_rack_fault_failover () =
  let faults = Fault_spec.parse_exn "node-crash@2ms:id=1" in
  let r = Rack.run (cfg ~replicas:1 ~faults ()) (tenants ()) in
  check_int "the crash happened" 1 r.Rack.r_node_crashes;
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s survived the failover intact" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches;
      check_int
        (Printf.sprintf "%s lost no pages" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_lost_pages;
      check_bool "not degraded" true (t.Rack.t_degraded = None))
    r.Rack.r_tenants

(* Multi-writer shared segment: both tenants RFO-write the same lines,
   so the MSI home must recall dirty copies and hand ownership back and
   forth; the per-line last-writer-wins oracle still has to converge. *)
let mw_cfg ?replicas ?faults () =
  {
    Rack.default_config with
    Rack.shared_writers = 2;
    runtime = runtime ?replicas ?faults ();
  }

let test_rack_multi_writer () =
  let r = Rack.run (mw_cfg ()) (tenants ()) in
  check_bool "the home granted new exclusives" true (r.Rack.r_owner_changes > 0);
  check_bool "recalls snooped holders" true (r.Rack.r_snoops > 0);
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s converged to last-writer-wins"
           t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches)
    r.Rack.r_tenants

(* Writer handoff proper — a write-miss recalling the previous writer's
   *dirty* copy — needs back-to-back writes with no intervening read
   (the woven replay always downgrades lines to Shared first), so drive
   a doorbell-style ping-pong directly and crash a node mid-stream. *)
let test_rack_writer_handoff_under_fault () =
  let cfg =
    { Rack.default_config with Rack.runtime = runtime ~replicas:1 ();
      shared_pages = 0 }
  in
  let e = Rack.start cfg (tenants ()) in
  Rack.publish e ~pages:1;
  Rack.enable_multi_writer e;
  let ping_pong k0 =
    for k = k0 to k0 + 15 do
      Rack.shared_line_write e ~tenant:(k mod 2) ~line:0
        ~payload:(Char.chr (0x20 + (k land 0x3f)))
    done
  in
  ping_pong 0;
  let h1 = Rack.shared_handoffs e in
  check_bool "each write recalled the peer's dirty line" true (h1 >= 8);
  Rack.crash_node e ~id:1;
  while not (Rack.recovery_idle e) do
    Rack.step_recovery e
  done;
  ping_pong 16;
  check_bool "handoffs continued after the failover" true
    (Rack.shared_handoffs e > h1);
  Alcotest.(check (option int))
    "last writer owns the line" (Some 1)
    (Rack.shared_owner e ~line:0);
  Alcotest.(check (list string)) "home table stayed coherent" []
    (Rack.coherence_audit e);
  while Rack.step e > 0 do () done;
  let r = Rack.finish e in
  check_int "remote image converged to last-writer-wins" 0
    (Rack.shared_divergence e);
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s survived intact" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches)
    r.Rack.r_tenants

let test_rack_multi_writer_failover () =
  let faults = Fault_spec.parse_exn "node-crash@2ms:id=1" in
  let r = Rack.run (mw_cfg ~replicas:1 ~faults ()) (tenants ()) in
  check_int "the crash happened" 1 r.Rack.r_node_crashes;
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s survived the failover intact"
           t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches;
      check_int
        (Printf.sprintf "%s lost no pages" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_lost_pages)
    r.Rack.r_tenants

let test_rack_multi_writer_determinism () =
  let fingerprints () =
    let r = Rack.run (mw_cfg ()) (tenants ()) in
    Array.map (fun t -> t.Rack.t_fingerprint) r.Rack.r_tenants
  in
  let a = fingerprints () and b = fingerprints () in
  Alcotest.(check (array string))
    "same seeds give bit-identical multi-writer runs" a b

(* ------------------------------------------------------------------ *)
(* Placement: migration, drain, and their composition with faults.     *)

(* A tiered rack where placement matters: 3 nodes, only node 0 fast,
   FMem squeezed so the zipf tenant's hot set thrashes through fetches. *)
let placement_cfg ?(policy = "heat") ?replicas ?faults ?(ops = []) () =
  {
    Rack.default_config with
    Rack.nodes = 3;
    fast_nodes = 1;
    slow_extra_ns = 2000;
    policy;
    ops;
    runtime =
      { (runtime ?replicas ?faults ()) with Kona.Runtime.fmem_pages = 64 };
  }

let placement_tenants =
  [
    { Rack.name = "t0"; workload = "kv-zipf"; bw_share = 1; mem_quota = None;
      seed = 42 };
    { Rack.name = "t1"; workload = "kv-uniform"; bw_share = 1; mem_quota = None;
      seed = 43 };
  ]

let total_mismatches (r : Rack.result) =
  Array.fold_left (fun acc t -> acc + t.Rack.t_mismatches) 0 r.Rack.r_tenants

let test_placement_heat_beats_first_fit () =
  let base = Rack.run (placement_cfg ~policy:"first-fit" ()) placement_tenants in
  let heat = Rack.run (placement_cfg ~policy:"heat" ()) placement_tenants in
  check_int "first-fit never migrates" 0 base.Rack.r_migrations;
  check_bool "heat migrated pages" true (heat.Rack.r_migrations > 0);
  check_bool
    (Printf.sprintf "heat lowers the remote-hit ratio (%d < %d permille)"
       heat.Rack.r_remote_hit_pml base.Rack.r_remote_hit_pml)
    true
    (heat.Rack.r_remote_hit_pml < base.Rack.r_remote_hit_pml);
  check_bool "hot fetches mostly land on the fast tier" true
    (heat.Rack.r_hot_hit_pml >= 800);
  (* Migration traffic is charged through the per-node WFQ: the copies
     queue, and the queueing they absorb (and impose) is visible. *)
  check_bool "migration traffic contended at the nodes" true
    (heat.Rack.r_migrator_delay_ns > 0);
  check_bool "tenants queued longer under migration" true
    (heat.Rack.r_tenants.(0).Rack.t_delay_ns
     + heat.Rack.r_tenants.(1).Rack.t_delay_ns
     > base.Rack.r_tenants.(0).Rack.t_delay_ns
       + base.Rack.r_tenants.(1).Rack.t_delay_ns);
  check_int "no divergence under first-fit" 0 (total_mismatches base);
  check_int "no divergence under migration" 0 (total_mismatches heat)

let test_placement_determinism_per_policy () =
  List.iter
    (fun policy ->
      let fp () =
        let r = Rack.run (placement_cfg ~policy ()) placement_tenants in
        Array.map (fun t -> t.Rack.t_fingerprint) r.Rack.r_tenants
      in
      Alcotest.(check (array string))
        (policy ^ " is bit-reproducible") (fp ()) (fp ()))
    [ "first-fit"; "heat"; "centralized" ]

let test_placement_drain_rehomes () =
  let ops = Rack_ops.parse_exn "drain@5ms:id=1" in
  let r = Rack.run (placement_cfg ~ops ()) placement_tenants in
  check_int "drain applied" 1 r.Rack.r_ops_applied;
  check_bool "pages re-homed" true (r.Rack.r_drained_pages > 0);
  check_int "every page found a new home" 0 r.Rack.r_drain_failures;
  check_int "no divergence across the drain" 0 (total_mismatches r)

let test_placement_add_then_drain () =
  (* Register a fresh node, then drain one of the originals: re-homed
     pages can land on the newcomer, and the rack stays convergent. *)
  let ops = Rack_ops.parse_exn "add@2ms:cap=16777216;drain@4ms:id=2" in
  let r = Rack.run (placement_cfg ~ops ()) placement_tenants in
  check_int "both ops applied" 2 r.Rack.r_ops_applied;
  check_bool "pages re-homed" true (r.Rack.r_drained_pages > 0);
  check_int "no drain failures" 0 r.Rack.r_drain_failures;
  check_int "no divergence" 0 (total_mismatches r)

let test_apply_op_add_registers_node () =
  (* An add with no scheduled ops behind it still registers the node,
     with its scheduler and rack.node.* series. *)
  let e = Rack.start (cfg ()) (tenants ()) in
  Rack.apply_op e (Rack_ops.Add_node { capacity = None });
  check_int "node 2 registered" 3 (Rack.node_count e);
  let store = Rack_controller.node (Rack.controller e) ~id:2 in
  check_int "controller knows node 2"
    Rack.default_config.Rack.node_capacity
    (Kona.Memory_node.capacity store);
  while Rack.step e > 0 do () done;
  let r = Rack.finish e in
  check_int "one op applied" 1 r.Rack.r_ops_applied;
  check_bool "rack.node.admits{node=2} exported" true
    (Kona_telemetry.Snapshot.counter_value r.Rack.r_snapshot
       "rack.node.admits{node=2}"
     <> None);
  check_int "no divergence" 0 (total_mismatches r)

let test_drain_before_add_rejected () =
  let start ops =
    Rack.start { (cfg ()) with Rack.ops = Rack_ops.parse_exn ops } (tenants ())
  in
  (match start "drain@1ms:id=2;add@3ms" with
  | _ -> Alcotest.fail "a drain of node 2 before its add must be rejected"
  | exception Invalid_argument msg ->
      check_bool ("names the drain: " ^ msg) true
        (String.starts_with ~prefix:"Rack.run: drain at 1000000 ns of node 2"
           msg));
  (* the same two ops in the other order are fine *)
  ignore (start "add@1ms;drain@3ms:id=2")

let test_placement_drain_composes_with_failover () =
  (* Node 1 crashes at 2ms (replica failover promotes its mirror), then
     a drain of the same node at 4ms re-homes every page off the
     promoted copy — the crash-mid-drain contract. *)
  let faults = Fault_spec.parse_exn "node-crash@2ms:id=1" in
  let ops = Rack_ops.parse_exn "drain@4ms:id=1" in
  let r =
    Rack.run (placement_cfg ~replicas:1 ~faults ~ops ()) placement_tenants
  in
  check_int "the crash happened" 1 r.Rack.r_node_crashes;
  check_bool "drain still re-homed pages" true (r.Rack.r_drained_pages > 0);
  check_int "no page was stranded" 0 r.Rack.r_drain_failures;
  Array.iter
    (fun (t : Rack.tenant_result) ->
      check_int (t.Rack.t_cfg.Rack.name ^ " converged") 0 t.Rack.t_mismatches;
      check_int (t.Rack.t_cfg.Rack.name ^ " lost nothing") 0
        t.Rack.t_lost_pages)
    r.Rack.r_tenants

let test_placement_quota_conserved_by_migration () =
  (* Migration moves pages the tenant already paid for; a quota sized to
     the tenant's allocation must not trip as pages migrate. *)
  let quota = Some (Units.mib 8) in
  let tenants =
    [
      { Rack.name = "t0"; workload = "kv-zipf"; bw_share = 1;
        mem_quota = quota; seed = 42 };
      { Rack.name = "t1"; workload = "kv-uniform"; bw_share = 1;
        mem_quota = None; seed = 43 };
    ]
  in
  let r = Rack.run (placement_cfg ~policy:"heat" ()) tenants in
  check_bool "pages migrated under the quota" true (r.Rack.r_migrations > 0);
  check_int "no divergence" 0 (total_mismatches r)

let test_rack_validates_tenants () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "empty tenant list" true (raises (fun () -> Rack.run (cfg ()) []));
  check_bool "duplicate names" true
    (raises (fun () ->
         Rack.run (cfg ())
           [
             { Rack.name = "t"; workload = "kv-uniform"; bw_share = 1;
               mem_quota = None; seed = 1 };
             { Rack.name = "t"; workload = "page-rank"; bw_share = 1;
               mem_quota = None; seed = 2 };
           ]));
  check_bool "unknown workload" true
    (raises (fun () ->
         Rack.run (cfg ())
           [
             { Rack.name = "t"; workload = "no-such-workload"; bw_share = 1;
               mem_quota = None; seed = 1 };
           ]));
  check_bool "non-positive share" true
    (raises (fun () ->
         Rack.run (cfg ())
           [
             { Rack.name = "t"; workload = "kv-uniform"; bw_share = 0;
               mem_quota = None; seed = 1 };
           ]))

let () =
  Alcotest.run "kona_rack"
    [
      ( "wfq",
        [
          Alcotest.test_case "idle admits free" `Quick test_wfq_idle_no_delay;
          Alcotest.test_case "wire time" `Quick test_wfq_wire_time;
          Alcotest.test_case "weighted shares" `Quick test_wfq_weighted_shares;
          Alcotest.test_case "rejects bad config" `Quick
            test_wfq_rejects_bad_config;
          QCheck_alcotest.to_alcotest wfq_fairness_prop;
        ] );
      ( "rack",
        [
          Alcotest.test_case "two tenants" `Quick test_rack_two_tenants;
          Alcotest.test_case "sharer recall" `Quick test_rack_sharer_recall;
          Alcotest.test_case "determinism" `Quick test_rack_determinism;
          Alcotest.test_case "quota rejection" `Quick test_rack_quota_rejection;
          Alcotest.test_case "fault failover" `Quick test_rack_fault_failover;
          Alcotest.test_case "multi-writer" `Quick test_rack_multi_writer;
          Alcotest.test_case "writer handoff under fault" `Quick
            test_rack_writer_handoff_under_fault;
          Alcotest.test_case "multi-writer failover" `Quick
            test_rack_multi_writer_failover;
          Alcotest.test_case "multi-writer determinism" `Quick
            test_rack_multi_writer_determinism;
          Alcotest.test_case "validates tenants" `Quick
            test_rack_validates_tenants;
        ] );
      ( "placement",
        [
          Alcotest.test_case "heat beats first-fit" `Quick
            test_placement_heat_beats_first_fit;
          Alcotest.test_case "per-policy determinism" `Quick
            test_placement_determinism_per_policy;
          Alcotest.test_case "drain re-homes" `Quick test_placement_drain_rehomes;
          Alcotest.test_case "add then drain" `Quick test_placement_add_then_drain;
          Alcotest.test_case "apply_op add registers a node" `Quick
            test_apply_op_add_registers_node;
          Alcotest.test_case "drain before its add rejected" `Quick
            test_drain_before_add_rejected;
          Alcotest.test_case "drain composes with failover" `Quick
            test_placement_drain_composes_with_failover;
          Alcotest.test_case "migration conserves quota" `Quick
            test_placement_quota_conserved_by_migration;
        ] );
    ]
