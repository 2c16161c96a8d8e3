(* Tests for kona_placement: decaying page-heat tracking, the pluggable
   placement policies, the epoch-driven migrator, and the rack-ops spec
   grammar. *)

open Kona_placement
module Rack_ops = Kona_rack.Rack_ops

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Heat *)

let test_heat_accumulates_and_decays () =
  let h = Heat.create ~epoch_ns:1000 in
  Heat.touch h ~vpage:7 ~weight:2 ~now:100;
  Heat.touch h ~vpage:7 ~weight:2 ~now:200;
  check_int "two touches accumulate" 4 (Heat.heat h ~vpage:7 ~now:200);
  (* One epoch later the counter has halved, two epochs quarters it. *)
  check_int "halves after one epoch" 2 (Heat.heat h ~vpage:7 ~now:1100);
  check_int "quarters after two epochs" 1 (Heat.heat h ~vpage:7 ~now:2100);
  check_int "gone after three" 0 (Heat.heat h ~vpage:7 ~now:3100);
  check_int "untracked page reads 0" 0 (Heat.heat h ~vpage:99 ~now:0);
  check_int "events counted" 2 (Heat.touches h)

let test_heat_ranked_and_iter () =
  let h = Heat.create ~epoch_ns:1_000_000 in
  Heat.touch h ~vpage:3 ~weight:1 ~now:0;
  Heat.touch h ~vpage:1 ~weight:5 ~now:0;
  Heat.touch h ~vpage:2 ~weight:5 ~now:0;
  (match Heat.ranked h ~now:0 with
  | (p0, h0) :: (p1, _) :: (p2, _) :: [] ->
      check_int "hottest first" 1 p0;
      check_int "hottest heat" 5 h0;
      check_int "tie broken by lower vpage" 2 p1;
      check_int "coldest last" 3 p2
  | l -> Alcotest.failf "expected 3 ranked pages, got %d" (List.length l));
  (* iter drops fully-decayed cells from the table. *)
  let far = 100 * 1_000_000 in
  Heat.iter h ~now:far (fun ~vpage:_ ~heat:_ -> ());
  check_int "decayed cells dropped" 0 (Heat.tracked h)

let test_heat_rejects_bad_epoch () =
  check_bool "non-positive epoch" true
    (raises_invalid (fun () -> Heat.create ~epoch_ns:0))

(* ------------------------------------------------------------------ *)
(* Placement policies *)

let node ?(fast = false) ?(draining = false) ~free ~cap id =
  {
    Placement_policy.ni_node = id;
    ni_fast = fast;
    ni_free = free;
    ni_capacity = cap;
    ni_draining = draining;
  }

let page ?(tenant = 0) ~vpage ~node:n ~heat () =
  { Placement_policy.pi_vpage = vpage; pi_tenant = tenant; pi_node = n;
    pi_heat = heat }

let mib = 1024 * 1024

let test_policy_registry () =
  check_int "three policies" 3 (List.length Placement_policy.names);
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " resolves to itself") name
        (Placement_policy.find name).Placement_policy.name)
    Placement_policy.names;
  check_bool "unknown policy rejected" true
    (raises_invalid (fun () -> Placement_policy.find "hotcold"))

let test_first_fit_is_inert () =
  let p = Placement_policy.first_fit () in
  let nodes = [ node ~fast:true ~free:mib ~cap:mib 0 ] in
  check_bool "no allocation preference" true
    (p.Placement_policy.choose_node ~nodes ~tenant:0 = None);
  check_int "no moves planned" 0
    (List.length
       (p.Placement_policy.plan ~nodes
          ~pages:[ page ~vpage:0 ~node:0 ~heat:100 () ]
          ~budget:8))

let test_heat_promotes_hot_slow_pages () =
  let p = Placement_policy.heat_aware ~hot_threshold:4 () in
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages =
    [ page ~vpage:10 ~node:1 ~heat:9 (); page ~vpage:11 ~node:0 ~heat:9 ();
      page ~vpage:12 ~node:1 ~heat:1 () ]
  in
  match p.Placement_policy.plan ~nodes ~pages ~budget:8 with
  | [ mv ] ->
      check_int "the stranded hot page moves" 10 mv.Placement_policy.mv_vpage;
      check_int "to the fast node" 0 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 move, got %d" (List.length l)

let test_heat_demotes_only_under_pressure () =
  let p = Placement_policy.heat_aware ~hot_threshold:4 () in
  let pages = [ page ~vpage:5 ~node:0 ~heat:1 () ] in
  (* Plenty of fast headroom: the cold resident stays put. *)
  let roomy =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  check_int "no churn while the fast tier has room" 0
    (List.length (p.Placement_policy.plan ~nodes:roomy ~pages ~budget:8));
  (* Fast tier nearly full: the cold resident is shipped out. *)
  let full =
    [ node ~fast:true ~free:0 ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  match p.Placement_policy.plan ~nodes:full ~pages ~budget:8 with
  | [ mv ] ->
      check_int "cold page demoted" 5 mv.Placement_policy.mv_vpage;
      check_int "off the fast tier" 1 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 demotion, got %d" (List.length l)

let test_heat_respects_budget_and_draining () =
  let p = Placement_policy.heat_aware ~hot_threshold:2 () in
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages =
    List.init 10 (fun i -> page ~vpage:i ~node:1 ~heat:(10 - i) ())
  in
  let plan = p.Placement_policy.plan ~nodes ~pages ~budget:3 in
  check_int "budget caps the plan" 3 (List.length plan);
  (* A draining fast node is not a destination. *)
  let draining =
    [ node ~fast:true ~draining:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  check_int "no moves onto a draining node" 0
    (List.length (p.Placement_policy.plan ~nodes:draining ~pages ~budget:3))

let test_centralized_balances_capacity () =
  let p = Placement_policy.centralized () in
  (* Node 0 is far above the mean; node 1 has headroom. *)
  let nodes =
    [ node ~free:0 ~cap:(4 * mib) 0; node ~free:(4 * mib) ~cap:(4 * mib) 1 ]
  in
  let pages =
    [ page ~vpage:1 ~node:0 ~heat:9 (); page ~vpage:2 ~node:0 ~heat:0 () ]
  in
  (match p.Placement_policy.plan ~nodes ~pages ~budget:1 with
  | [ mv ] ->
      check_int "sheds the coldest page first" 2 mv.Placement_policy.mv_vpage;
      check_int "to the emptier node" 1 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 move, got %d" (List.length l));
  check_int "balanced racks plan nothing" 0
    (List.length
       (p.Placement_policy.plan
          ~nodes:
            [ node ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
          ~pages ~budget:4))

(* ------------------------------------------------------------------ *)
(* Migrator *)

let stub_env ?(move_result = Some 1) ~nodes ~pages () =
  let moves = ref [] and flushes = ref 0 and charges = ref [] in
  let env =
    {
      Migrator.nodes = (fun () -> nodes);
      pages = (fun ~now:_ -> pages);
      flush_logs = (fun () -> incr flushes);
      move_page =
        (fun mv ->
          moves := mv :: !moves;
          move_result);
      charge =
        (fun ~node ~bytes:_ ~now:_ ->
          charges := node :: !charges;
          7);
    }
  in
  (env, moves, flushes, charges)

let test_migrator_epoch_gating () =
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages = [ page ~vpage:10 ~node:1 ~heat:9 () ] in
  let env, moves, flushes, charges = stub_env ~nodes ~pages () in
  let m =
    Migrator.create
      ~policy:(Placement_policy.heat_aware ~hot_threshold:4 ())
      ~epoch_ns:1000 ~budget:8 ~page_bytes:4096 env
  in
  Migrator.tick m ~now:500;
  check_int "no tick before the first epoch boundary" 0 (Migrator.migrations m);
  Migrator.tick m ~now:1500;
  check_int "one migration after the boundary" 1 (Migrator.migrations m);
  check_int "logs flushed before remapping" 1 !flushes;
  check_int "4 KiB crossed the fabric" 4096 (Migrator.bytes_moved m);
  (* Source read + destination write both charged. *)
  check_int "two WFQ charges" 2 (List.length !charges);
  check_int "their queueing is accounted" 14 (Migrator.charged_ns m);
  Migrator.tick m ~now:1600;
  check_int "same epoch does not re-fire" 1 (Migrator.epochs m);
  check_int "one move executed in total" 1 (List.length !moves)

let test_migrator_counts_failures () =
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages = [ page ~vpage:10 ~node:1 ~heat:9 () ] in
  let env, _, _, charges = stub_env ~move_result:None ~nodes ~pages () in
  let m =
    Migrator.create
      ~policy:(Placement_policy.heat_aware ~hot_threshold:4 ())
      ~epoch_ns:1000 ~budget:8 ~page_bytes:4096 env
  in
  Migrator.tick m ~now:1500;
  check_int "declined move counted" 1 (Migrator.failed m);
  check_int "nothing migrated" 0 (Migrator.migrations m);
  check_int "failed moves are not charged" 0 (List.length !charges)

(* ------------------------------------------------------------------ *)
(* Rack-ops grammar *)

let test_rack_ops_parse () =
  let ops = Rack_ops.parse_exn "add@3ms:cap=1048576;drain@5ms:id=1;rebalance@7ms" in
  (match ops with
  | [ a; d; r ] ->
      check_int "add fires at 3ms" 3_000_000 a.Rack_ops.at_ns;
      (match a.Rack_ops.op with
      | Rack_ops.Add_node { capacity = Some c } -> check_int "capacity" 1048576 c
      | _ -> Alcotest.fail "expected add with capacity");
      (match d.Rack_ops.op with
      | Rack_ops.Drain { id } -> check_int "drain target" 1 id
      | _ -> Alcotest.fail "expected drain");
      check_bool "rebalance parsed" true (r.Rack_ops.op = Rack_ops.Rebalance)
  | l -> Alcotest.failf "expected 3 clauses, got %d" (List.length l));
  (* Round-trip through to_string. *)
  Alcotest.(check string)
    "round-trips" "add@3ms:cap=1048576;drain@5ms:id=1;rebalance@7ms"
    (Rack_ops.to_string ops);
  check_bool "empty spec is empty" true (Rack_ops.parse_exn "" = [])

let test_rack_ops_rejects_garbage () =
  List.iter
    (fun spec ->
      check_bool (Printf.sprintf "%S rejected" spec) true
        (match Rack_ops.parse spec with Ok _ -> false | Error _ -> true))
    [ "drain@5ms"; "drain@5ms:id=x"; "shrink@1ms"; "drain@bogus:id=1";
      "add@1ms:cap=-3" ]

let test_rack_ops_duration_overflow () =
  check_bool "drain@5000000000s rejected" true
    (match Rack_ops.parse "drain@5000000000s:id=1" with
    | Ok _ -> false
    | Error _ -> true)

let () =
  Alcotest.run "kona_placement"
    [
      ( "heat",
        [
          Alcotest.test_case "accumulates and decays" `Quick
            test_heat_accumulates_and_decays;
          Alcotest.test_case "ranked and iter" `Quick test_heat_ranked_and_iter;
          Alcotest.test_case "rejects bad epoch" `Quick
            test_heat_rejects_bad_epoch;
        ] );
      ( "policy",
        [
          Alcotest.test_case "registry" `Quick test_policy_registry;
          Alcotest.test_case "first-fit is inert" `Quick test_first_fit_is_inert;
          Alcotest.test_case "heat promotes hot slow pages" `Quick
            test_heat_promotes_hot_slow_pages;
          Alcotest.test_case "heat demotes only under pressure" `Quick
            test_heat_demotes_only_under_pressure;
          Alcotest.test_case "budget and draining respected" `Quick
            test_heat_respects_budget_and_draining;
          Alcotest.test_case "centralized balances capacity" `Quick
            test_centralized_balances_capacity;
        ] );
      ( "migrator",
        [
          Alcotest.test_case "epoch gating and charging" `Quick
            test_migrator_epoch_gating;
          Alcotest.test_case "counts declined moves" `Quick
            test_migrator_counts_failures;
        ] );
      ( "rack-ops",
        [
          Alcotest.test_case "parses schedules" `Quick test_rack_ops_parse;
          Alcotest.test_case "rejects garbage" `Quick
            test_rack_ops_rejects_garbage;
          Alcotest.test_case "rejects an overflowing time" `Quick
            test_rack_ops_duration_overflow;
        ] );
    ]
