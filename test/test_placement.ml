(* Tests for kona_placement: decaying page-heat tracking, the pluggable
   placement policies, the epoch-driven migrator, the rack's per-epoch
   page view, and the rack-ops spec grammar. *)

open Kona_placement
module Rack = Kona_rack.Rack
module Rack_ops = Kona_rack.Rack_ops
module Memory_node = Kona.Memory_node
module Rack_controller = Kona.Rack_controller
module Resource_manager = Kona.Resource_manager
module Slab = Kona.Slab
module Units = Kona_util.Units

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
  check_int "untracked page reads 0" 0 (Heat.heat h ~vpage:99 ~now:0)

let fold_all h ~now =
  Heat.fold h ~now ~only:(fun _ -> true)
    (fun ~vpage ~heat acc -> (vpage, heat) :: acc)
    []

let test_heat_fold_ranks_and_settles () =
  let h = Heat.create ~epoch_ns:1_000_000 in
  Heat.touch h ~vpage:3 ~weight:1 ~now:0;
  Heat.touch h ~vpage:1 ~weight:5 ~now:0;
  Heat.touch h ~vpage:2 ~weight:5 ~now:0;
  let hottest (p1, h1) (p2, h2) =
    if h1 <> h2 then Int.compare h2 h1 else Int.compare p1 p2
  in
  (match List.sort hottest (fold_all h ~now:0) with
  | (p0, h0) :: (p1, _) :: (p2, _) :: [] ->
      check_int "hottest first" 1 p0;
      check_int "hottest heat" 5 h0;
      check_int "tie broken by lower vpage" 2 p1;
      check_int "coldest last" 3 p2
  | l -> Alcotest.failf "expected 3 ranked pages, got %d" (List.length l));
  (* Two epochs on, the counters [only] accepts are settled; page 1 is
     neither visited nor settled, so one epoch on it has only halved. *)
  let seen =
    Heat.fold h ~now:2_000_000 ~only:(fun vpage -> vpage <> 1)
      (fun ~vpage ~heat acc -> (vpage, heat) :: acc)
      []
  in
  Alcotest.(check (list (pair int int)))
    "accepted counters settled" [ (2, 1); (3, 0) ] (List.sort compare seen);
  check_int "rejected counter left unsettled" 2
    (Heat.heat h ~vpage:1 ~now:1_000_000)

let test_heat_fold_keeps_decayed_cells () =
  let h = Heat.create ~epoch_ns:1000 in
  Heat.touch h ~vpage:7 ~weight:4 ~now:0;
  let far = 100_000 in
  Alcotest.(check (list (pair int int)))
    "a counter decayed to 0 is still folded" [ (7, 0) ] (fold_all h ~now:far);
  (* The kept counter stays settled at [far]'s epoch: a touch from a
     clock still at 0 lands there undecayed, where a fresh counter starts
     at epoch 0 and has decayed away by [far]. *)
  Heat.touch h ~vpage:7 ~weight:4 ~now:0;
  Heat.touch h ~vpage:8 ~weight:4 ~now:0;
  check_int "kept counter keeps its later epoch" 4
    (Heat.heat h ~vpage:7 ~now:far);
  check_int "fresh counter decays from its touch" 0
    (Heat.heat h ~vpage:8 ~now:far)

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

(* A page view as the rack builds it from a hottest-first page list. *)
let view pages =
  { Placement_policy.hot =
      List.filter (fun p -> p.Placement_policy.pi_heat > 0) pages;
    all = lazy pages }

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
  let p = Placement_policy.find "first-fit" in
  let nodes = [ node ~fast:true ~free:mib ~cap:mib 0 ] in
  check_bool "no allocation preference" true
    (p.Placement_policy.choose_node = None);
  check_int "no moves planned" 0
    (List.length
       (p.Placement_policy.plan ~nodes
          ~pages:(view [ page ~vpage:0 ~node:0 ~heat:100 () ])
          ~budget:8))

let test_heat_promotes_hot_slow_pages () =
  let p = Placement_policy.find "heat" in
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages =
    view
      [ page ~vpage:10 ~node:1 ~heat:9 (); page ~vpage:11 ~node:0 ~heat:9 ();
        page ~vpage:12 ~node:1 ~heat:1 () ]
  in
  match p.Placement_policy.plan ~nodes ~pages ~budget:8 with
  | [ mv ] ->
      check_int "the stranded hot page moves" 10 mv.Placement_policy.mv_vpage;
      check_int "to the fast node" 0 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 move, got %d" (List.length l)

let test_heat_demotes_only_under_pressure () =
  let p = Placement_policy.find "heat" in
  let pages = view [ page ~vpage:5 ~node:0 ~heat:1 () ] in
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
  let p = Placement_policy.find "heat" in
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages =
    view (List.init 10 (fun i -> page ~vpage:i ~node:1 ~heat:(10 - i) ()))
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
    view [ page ~vpage:1 ~node:0 ~heat:9 (); page ~vpage:2 ~node:0 ~heat:0 () ]
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
  let pages = view [ page ~vpage:10 ~node:1 ~heat:9 () ] in
  let env, moves, flushes, charges = stub_env ~nodes ~pages () in
  let m =
    Migrator.create
      ~policy:(Placement_policy.find "heat")
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
  check_int "same epoch does not re-fire" 1 (Migrator.migrations m);
  check_int "one move executed in total" 1 (List.length !moves)

let test_migrator_counts_failures () =
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages = view [ page ~vpage:10 ~node:1 ~heat:9 () ] in
  let env, _, _, charges = stub_env ~move_result:None ~nodes ~pages () in
  let m =
    Migrator.create
      ~policy:(Placement_policy.find "heat")
      ~epoch_ns:1000 ~budget:8 ~page_bytes:4096 env
  in
  Migrator.tick m ~now:1500;
  check_int "declined move counted" 1 (Migrator.failed m);
  check_int "nothing migrated" 0 (Migrator.migrations m);
  check_int "failed moves are not charged" 0 (List.length !charges)

(* ------------------------------------------------------------------ *)
(* The rack's page view *)

(* The page list the migrator read before the view existed, kept as the
   reference: a scan of every backed page outside the segment, each heat
   read (and so settled) one by one, sorted by polymorphic compare. *)
let reference_pages ~heats ~rms ~shared ~now =
  let acc = ref [] in
  Array.iteri
    (fun i rm ->
      Resource_manager.iter_backed_pages rm (fun ~vpage ~node ~remote_addr:_ ->
          if not (shared vpage) then
            acc :=
              { Placement_policy.pi_vpage = vpage; pi_tenant = i;
                pi_node = node; pi_heat = Heat.heat heats.(i) ~vpage ~now }
              :: !acc))
    rms;
  List.sort
    (fun a b ->
      let open Placement_policy in
      if a.pi_heat <> b.pi_heat then compare b.pi_heat a.pi_heat
      else compare (a.pi_tenant, a.pi_vpage) (b.pi_tenant, b.pi_vpage))
    !acc

(* Two tenants over 4-page slabs on three nodes.  Private pages lie below
   [seg_first]; tenant 0 backs the two segment slabs above it and tenant
   1 maps them foreign, as the rack's published segment does. *)
let epoch = 1000
let slab_pages = 4
let seg_first = 32
let seg_pages = 2 * slab_pages

type view_op =
  | Touch of { tenant : int; pick : int; weight : int; dt : int }
  | Remap of { tenant : int; pick : int; node : int }
  | View of { tenant : int; force : bool }

let pp_view_op = function
  | Touch { tenant; pick; weight; dt } ->
      Printf.sprintf "touch(t%d,#%d,w%d,+%d)" tenant pick weight dt
  | Remap { tenant; pick; node } ->
      Printf.sprintf "remap(t%d,#%d,n%d)" tenant pick node
  | View { tenant; force } -> Printf.sprintf "view(t%d,%b)" tenant force

let view_case_gen =
  QCheck2.Gen.(
    let private_pages =
      list_size (int_range 1 10) (int_range 0 (seg_first - 1))
    in
    (* mostly sub-epoch steps, so the two clocks cross epoch boundaries in
       either order; now and then a jump that decays counters to 0 *)
    let dt =
      frequency
        [ (8, int_range 0 (3 * epoch / 2));
          (1, int_range (5 * epoch) (80 * epoch)) ]
    in
    let tenant = int_range 0 1 in
    let op =
      frequency
        [ ( 6,
            map
              (fun (tenant, pick, weight, dt) ->
                Touch { tenant; pick; weight; dt })
              (quad tenant nat (int_range 1 2) dt) );
          ( 1,
            map
              (fun (tenant, pick, node) -> Remap { tenant; pick; node })
              (triple tenant nat (int_range 0 2)) );
          ( 2,
            map
              (fun (tenant, force) -> View { tenant; force })
              (pair tenant bool) );
        ]
    in
    triple private_pages private_pages (list_size (int_range 1 80) op))

let print_view_case (p0, p1, ops) =
  let pages l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "t0 backs [%s]; t1 backs [%s]; %s" (pages p0) (pages p1)
    (String.concat " " (List.map pp_view_op ops))

let view_fabric private_pages =
  let page = Units.page_size in
  let controller = Rack_controller.create ~slab_size:(slab_pages * page) () in
  for id = 0 to 2 do
    Rack_controller.register_node controller
      (Memory_node.create ~id ~capacity:(1 lsl 20))
  done;
  let rms =
    Array.init 2 (fun _ -> Resource_manager.create ~batch:1 ~controller ())
  in
  Array.iteri
    (fun i pages ->
      List.iter
        (fun vpage ->
          Resource_manager.ensure_backed rms.(i) ~addr:(vpage * page) ~len:page)
        pages)
    private_pages;
  Resource_manager.ensure_backed rms.(0) ~addr:(seg_first * page)
    ~len:(seg_pages * page);
  Resource_manager.map_foreign rms.(1) ~at:(seg_first * page)
    (List.filter
       (fun s -> s.Slab.vaddr >= seg_first * page)
       (Resource_manager.slabs rms.(0)));
  rms

(* Replays one op sequence on two copies of the heat counters: the
   reference scan reads one copy, [Rack.page_view] the other, at every
   view.  The view must list the reference's pages in its order, and
   settle the same counters: afterwards a lagging touch of every page,
   read at a later [now], must find each counter at the same epoch with
   the same value. *)
let view_matches_scan (p0, p1, ops) =
  let private_pages = [| p0; p1 |] in
  let rms = view_fabric private_pages in
  let shared vpage = vpage >= seg_first in
  let counters () = Array.init 2 (fun _ -> Heat.create ~epoch_ns:epoch) in
  let ref_heats = counters () and new_heats = counters () in
  let clock = Array.make 2 0 in
  let nth l k = List.nth l (k mod List.length l) in
  let hot = List.filter (fun p -> p.Placement_policy.pi_heat > 0) in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  List.iter
    (function
      | Touch { tenant; pick; weight; dt } ->
          clock.(tenant) <- clock.(tenant) + dt;
          let touchable =
            private_pages.(tenant)
            @ List.init seg_pages (fun k -> seg_first + k)
          in
          let vpage = nth touchable pick in
          Heat.touch ref_heats.(tenant) ~vpage ~weight ~now:clock.(tenant);
          Heat.touch new_heats.(tenant) ~vpage ~weight ~now:clock.(tenant)
      | Remap { tenant; pick; node } ->
          Resource_manager.remap_page rms.(tenant)
            ~vpage:(nth private_pages.(tenant) pick)
            ~node ~remote_addr:(pick mod 64 * Units.page_size)
      | View { tenant; force } ->
          let now = clock.(tenant) in
          let expected = reference_pages ~heats:ref_heats ~rms ~shared ~now in
          let v = Rack.page_view ~heats:new_heats ~rms ~shared ~now in
          if v.Placement_policy.hot <> hot expected then
            fail "hot pages differ at t%d's now %d" tenant now;
          if force && Lazy.force v.Placement_policy.all <> expected then
            fail "page lists differ at t%d's now %d" tenant now)
    ops;
  let later = Array.fold_left max 0 clock + epoch in
  for tenant = 0 to 1 do
    for vpage = 0 to seg_first + seg_pages - 1 do
      List.iter
        (fun h -> Heat.touch h.(tenant) ~vpage ~weight:(1 lsl 40) ~now:0)
        [ ref_heats; new_heats ];
      let expected = Heat.heat ref_heats.(tenant) ~vpage ~now:later in
      let actual = Heat.heat new_heats.(tenant) ~vpage ~now:later in
      if actual <> expected then
        fail "t%d page %d reads %d, reference %d" tenant vpage actual expected
    done
  done;
  true

let page_view_prop =
  QCheck2.Test.make ~count:300 ~name:"page view equals the full scan"
    ~print:print_view_case view_case_gen view_matches_scan

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
        (match Rack_ops.parse_exn spec with _ -> false | exception Invalid_argument _ -> true))
    [ "drain@5ms"; "drain@5ms:id=x"; "shrink@1ms"; "drain@bogus:id=1";
      "add@1ms:cap=-3" ]

let test_rack_ops_duration_overflow () =
  check_bool "drain@5000000000s rejected" true
    (match Rack_ops.parse_exn "drain@5000000000s:id=1" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "kona_placement"
    [
      ( "heat",
        [
          Alcotest.test_case "accumulates and decays" `Quick
            test_heat_accumulates_and_decays;
          Alcotest.test_case "fold ranks and settles" `Quick
            test_heat_fold_ranks_and_settles;
          Alcotest.test_case "fold keeps decayed cells" `Quick
            test_heat_fold_keeps_decayed_cells;
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
      ("page-view", [ QCheck_alcotest.to_alcotest page_view_prop ]);
      ( "rack-ops",
        [
          Alcotest.test_case "parses schedules" `Quick test_rack_ops_parse;
          Alcotest.test_case "rejects garbage" `Quick
            test_rack_ops_rejects_garbage;
          Alcotest.test_case "rejects an overflowing time" `Quick
            test_rack_ops_duration_overflow;
        ] );
    ]
