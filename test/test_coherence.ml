(* Tests for Kona_coherence: the FMem page cache with per-frame dirty
   bitmaps and the VFMem directory. *)

open Kona_coherence

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A victim's dirty lines, ascending, read off its two half-page masks. *)
let dirty_lines (v : Fmem.victim) =
  List.filter
    (fun l ->
      if l < 32 then v.Fmem.dirty_lo land (1 lsl l) <> 0
      else v.Fmem.dirty_hi land (1 lsl (l - 32)) <> 0)
    (List.init 64 Fun.id)

(* ------------------------------------------------------------------ *)
(* Fmem *)

let test_fmem_insert_lookup () =
  let f = Fmem.create ~pages:8 () in
  check_bool "cold lookup misses" false (Fmem.lookup f ~vpage:3);
  Alcotest.(check (option reject)) "insert into free frame" None (Fmem.insert f ~vpage:3);
  check_bool "hit after insert" true (Fmem.lookup f ~vpage:3);
  check_int "resident" 1 (Fmem.resident f);
  Alcotest.(check (option reject)) "re-insert is no-op" None (Fmem.insert f ~vpage:3)

let test_fmem_set_eviction () =
  (* 8 frames, 4-way -> 2 sets; even pages map to set 0. *)
  let f = Fmem.create ~pages:8 () in
  List.iter (fun p -> ignore (Fmem.insert f ~vpage:p)) [ 0; 2; 4; 6 ];
  ignore (Fmem.lookup f ~vpage:0) (* refresh 0 *);
  (match Fmem.victim_candidate f ~vpage:8 with
  | Some v -> check_int "LRU candidate" 2 v
  | None -> Alcotest.fail "set is full: candidate expected");
  (match Fmem.insert f ~vpage:8 with
  | Some victim -> check_int "evicted LRU" 2 victim.Fmem.vpage
  | None -> Alcotest.fail "expected eviction");
  check_bool "0 kept" true (Fmem.lookup f ~vpage:0);
  check_bool "2 gone" false (Fmem.lookup f ~vpage:2)

let test_fmem_dirty_bitmap () =
  let f = Fmem.create ~pages:8 () in
  ignore (Fmem.insert f ~vpage:5);
  check_bool "mark resident" true (Fmem.mark_dirty f ~vpage:5 ~line:7);
  check_bool "mark resident again" true (Fmem.mark_dirty f ~vpage:5 ~line:63);
  check_bool "mark absent fails" false (Fmem.mark_dirty f ~vpage:9 ~line:0);
  match Fmem.evict f ~vpage:5 with
  | Some v ->
      Alcotest.(check (list int)) "lines 7 and 63" [ 7; 63 ] (dirty_lines v)
  | None -> Alcotest.fail "resident page must evict with its dirty lines"

let test_fmem_victim_carries_dirt () =
  let f = Fmem.create ~assoc:1 ~pages:2 () in
  ignore (Fmem.insert f ~vpage:0);
  ignore (Fmem.mark_dirty f ~vpage:0 ~line:3);
  (match Fmem.insert f ~vpage:2 (* same set, assoc 1 *) with
  | Some victim ->
      check_int "victim page" 0 victim.Fmem.vpage;
      Alcotest.(check (list int)) "victim dirty mask" [ 3 ] (dirty_lines victim)
  | None -> Alcotest.fail "expected victim");
  (* new tenant's mask starts clean *)
  match Fmem.evict f ~vpage:2 with
  | Some v -> Alcotest.(check (list int)) "fresh mask" [] (dirty_lines v)
  | None -> Alcotest.fail "resident page must evict"

let test_fmem_explicit_evict () =
  let f = Fmem.create ~pages:8 () in
  ignore (Fmem.insert f ~vpage:1);
  ignore (Fmem.mark_dirty f ~vpage:1 ~line:0);
  (match Fmem.evict f ~vpage:1 with
  | Some v -> Alcotest.(check (list int)) "dirt carried" [ 0 ] (dirty_lines v)
  | None -> Alcotest.fail "resident page must evict");
  Alcotest.(check (option reject)) "absent evict" None (Fmem.evict f ~vpage:1);
  check_int "empty" 0 (Fmem.resident f)

(* The lines at both ends of both half-page masks: each lands in the right
   bit of the right int, is counted by [iter_resident], leaves with the
   victim and is cleared for the frame's next page. *)
let test_fmem_mask_edges () =
  let f = Fmem.create ~assoc:1 ~pages:2 () in
  ignore (Fmem.insert f ~vpage:0);
  List.iter
    (fun line -> check_bool "resident" true (Fmem.mark_dirty f ~vpage:0 ~line))
    [ 63; 0; 32; 31 ];
  let counts () =
    let acc = ref [] in
    Fmem.iter_resident f (fun ~vpage ~dirty -> acc := (vpage, dirty) :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list (pair int int))) "four dirty lines" [ (0, 4) ] (counts ());
  (match Fmem.insert f ~vpage:2 (* same set, assoc 1 *) with
  | Some v ->
      Alcotest.(check (list int)) "victim lines" [ 0; 31; 32; 63 ] (dirty_lines v);
      check_int "lower half" ((1 lsl 31) lor 1) v.Fmem.dirty_lo;
      check_int "upper half" ((1 lsl 31) lor 1) v.Fmem.dirty_hi
  | None -> Alcotest.fail "expected victim");
  Alcotest.(check (list (pair int int))) "next page clean" [ (2, 0) ] (counts ())

let prop_fmem_resident_bound =
  QCheck.Test.make ~name:"fmem residency never exceeds capacity" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1000))
    (fun pages ->
      let f = Fmem.create ~pages:16 () in
      List.iter (fun p -> ignore (Fmem.insert f ~vpage:p)) pages;
      Fmem.resident f <= 16)

let prop_fmem_insert_hits =
  QCheck.Test.make ~name:"lookup hits right after insert" ~count:200
    QCheck.(int_bound 10_000)
    (fun p ->
      let f = Fmem.create ~pages:16 () in
      ignore (Fmem.insert f ~vpage:p);
      Fmem.lookup f ~vpage:p)

(* ------------------------------------------------------------------ *)
(* Fmem policies *)

let test_fmem_fifo_policy () =
  (* FIFO ignores touches: the oldest insertion leaves first. *)
  let f = Fmem.create ~assoc:2 ~policy:Fmem.Fifo ~pages:2 () in
  ignore (Fmem.insert f ~vpage:0);
  ignore (Fmem.insert f ~vpage:2);
  ignore (Fmem.lookup f ~vpage:0) (* would save 0 under LRU *);
  (match Fmem.insert f ~vpage:4 with
  | Some v -> check_int "FIFO evicts first-inserted despite touch" 0 v.Fmem.vpage
  | None -> Alcotest.fail "expected eviction");
  (* Same sequence under LRU keeps 0. *)
  let f = Fmem.create ~assoc:2 ~policy:Fmem.Lru ~pages:2 () in
  ignore (Fmem.insert f ~vpage:0);
  ignore (Fmem.insert f ~vpage:2);
  ignore (Fmem.lookup f ~vpage:0);
  match Fmem.insert f ~vpage:4 with
  | Some v -> check_int "LRU evicts least-recently-used" 2 v.Fmem.vpage
  | None -> Alcotest.fail "expected eviction"

let test_fmem_random_policy_valid () =
  let f = Fmem.create ~assoc:4 ~policy:(Fmem.Random 3) ~pages:4 () in
  List.iter (fun p -> ignore (Fmem.insert f ~vpage:p)) [ 0; 1; 2; 3 ];
  match Fmem.insert f ~vpage:4 with
  | Some v -> check_bool "victim was resident" true (v.Fmem.vpage >= 0 && v.Fmem.vpage < 4)
  | None -> Alcotest.fail "full set must evict"

(* ------------------------------------------------------------------ *)
(* Protocol (MESI) *)

let st = Alcotest.of_pp Protocol.pp

let test_protocol_read_write_evict () =
  (* I --read--> E (fill), E --write--> M silently, M --evict--> writeback. *)
  let s, a = Protocol.on_processor Protocol.Invalid Protocol.Read in
  Alcotest.check st "read fill -> E" Protocol.Exclusive s;
  check_bool "fill visible" true (Protocol.home_observes a);
  let s, a = Protocol.on_processor s Protocol.Write in
  Alcotest.check st "silent upgrade -> M" Protocol.Modified s;
  check_bool "upgrade invisible (the crux of SS4.4)" false (Protocol.home_observes a);
  let s, a = Protocol.on_processor s Protocol.Evict in
  Alcotest.check st "evict -> I" Protocol.Invalid s;
  check_bool "writeback visible" true (Protocol.home_observes a);
  check_bool "writeback is the data action" true (a = Protocol.Writeback)

let test_protocol_silent_clean_drop () =
  let s, _ = Protocol.on_processor Protocol.Invalid Protocol.Read in
  let s, _ = Protocol.on_bus s Protocol.Bus_read in
  Alcotest.check st "E downgrades to S on bus read" Protocol.Shared s;
  let s, a = Protocol.on_processor s Protocol.Evict in
  Alcotest.check st "clean drop -> I" Protocol.Invalid s;
  check_bool "clean drop silent (directory over-approximates)" false
    (Protocol.home_observes a)

let test_protocol_snoop_supplies_data () =
  let s, _ = Protocol.on_processor Protocol.Invalid Protocol.Write in
  Alcotest.check st "write miss -> M" Protocol.Modified s;
  let s, a = Protocol.on_bus s Protocol.Bus_read_for_ownership in
  Alcotest.check st "rfo snoop -> I" Protocol.Invalid s;
  check_bool "snoop carries data" true (a = Protocol.Supply_data)

let prop_protocol_dirty_never_escapes_silently =
  (* Drive a line through arbitrary event sequences: whenever the state
     leaves Modified, the transition's action must be home-visible —
     modified data can never vanish without the agent seeing it. *)
  let event_gen =
    QCheck.Gen.oneofl
      [
        `P Protocol.Read; `P Protocol.Write; `P Protocol.Evict;
        `B Protocol.Bus_read; `B Protocol.Bus_read_for_ownership;
        `B Protocol.Bus_invalidate;
      ]
  in
  QCheck.Test.make ~name:"modified data never leaves silently" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) event_gen))
    (fun events ->
      let state = ref Protocol.Invalid in
      List.for_all
        (fun event ->
          let was_dirty = Protocol.is_dirty !state in
          let next, action =
            match event with
            | `P e -> Protocol.on_processor !state e
            | `B e -> Protocol.on_bus !state e
          in
          state := next;
          (not (was_dirty && not (Protocol.is_dirty next)))
          || Protocol.home_observes action)
        events)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory_counters () =
  (* The three counts the rack publishes as coherence.*. *)
  let d = Directory.create () in
  ignore (Directory.acquire d ~line:1 ~tenant:1 ~write:false);
  ignore (Directory.acquire d ~line:2 ~tenant:0 ~write:true);
  ignore (Directory.acquire d ~line:2 ~tenant:1 ~write:true);
  ignore (Directory.acquire d ~line:1 ~tenant:0 ~write:true);
  check_int "handoffs" 1 (Directory.handoffs d);
  check_int "owner changes" 3 (Directory.owner_changes d);
  check_int "invalidations: one handoff recall, one sharer killed" 2
    (Directory.invalidations d)

(* ------------------------------------------------------------------ *)
(* Multi-writer home directory ([acquire]) *)

let test_directory_acquire_handoff () =
  let d = Directory.create () in
  let g = Directory.acquire d ~line:7 ~tenant:0 ~write:true in
  Alcotest.(check (option int)) "fresh grant has no peer" None g.Directory.g_peer;
  check_int "owner change" 1 (Directory.owner_changes d);
  Alcotest.(check (option int)) "t0 owns" (Some 0) (Directory.owner d ~line:7);
  (* t1's write miss is an RFO: recall t0's dirty copy — a handoff *)
  let g = Directory.acquire d ~line:7 ~tenant:1 ~write:true in
  Alcotest.(check (option int)) "recalled previous owner" (Some 0)
    g.Directory.g_peer;
  Alcotest.(check bool) "recall carries data" true g.Directory.g_peer_dirty;
  check_int "handoff counted" 1 (Directory.handoffs d);
  Alcotest.(check (option int)) "ownership moved" (Some 1)
    (Directory.owner d ~line:7);
  (* t1 writing again is a hit: nothing recalled, nothing charged *)
  let g = Directory.acquire d ~line:7 ~tenant:1 ~write:true in
  Alcotest.(check (option int)) "write hit" None g.Directory.g_peer;
  Alcotest.(check (list int)) "write hit invalidates nothing" []
    g.Directory.g_invalidated;
  check_int "still one handoff" 1 (Directory.handoffs d);
  Alcotest.(check (list string)) "audit clean" [] (Directory.audit d)

let test_directory_acquire_downgrade_and_rfo () =
  let d = Directory.create () in
  ignore (Directory.acquire d ~line:3 ~tenant:0 ~write:true);
  (* t2 reads the modified line: dirty downgrade, both end Shared *)
  let g = Directory.acquire d ~line:3 ~tenant:2 ~write:false in
  Alcotest.(check (option int)) "downgrade recalls owner" (Some 0)
    g.Directory.g_peer;
  Alcotest.(check bool) "downgrade carries data" true g.Directory.g_peer_dirty;
  Alcotest.(check (option int)) "no owner after downgrade" None
    (Directory.owner d ~line:3);
  Alcotest.(check (list int)) "both share" [ 0; 2 ] (Directory.sharers d ~line:3);
  (* t1's RFO kills both read-only copies: invalidations, not a handoff *)
  let g = Directory.acquire d ~line:3 ~tenant:1 ~write:true in
  Alcotest.(check (option int)) "no dirty peer" None g.Directory.g_peer;
  Alcotest.(check (list int)) "sharers invalidated" [ 0; 2 ]
    g.Directory.g_invalidated;
  check_int "no handoff for clean kills" 0 (Directory.handoffs d);
  Alcotest.(check (option int)) "t1 owns" (Some 1) (Directory.owner d ~line:3);
  Alcotest.(check (list string)) "audit clean" [] (Directory.audit d)

(* The tentpole's model-checking property: drive random (agent, line,
   Read/Write/Evict) traces through [Protocol]'s per-agent MESI machine
   and, in lock-step, through [Directory.acquire] as the home side.
   Because the home answers every read miss with a Shared grant,
   Exclusive is unreachable, and the directory must be exactly the
   home-side MSI projection of the agents' states:

   - the directory's owner is the unique agent in Modified (both ways);
   - a directory-Shared line has no Modified agent, and every
     model-Shared agent appears among the tracked sharers (the
     directory may over-approximate: silent clean drops are invisible);
   - a directory-Invalid line means every agent holds Invalid;
   - an RFO's recalled peer is exactly the Modified agent, and its
     invalidation list covers the model-Shared holders;
   - [audit] stays empty throughout.

   The home has no writeback path: the rack's writers evict through their
   CL logs and keep ownership at the home, so an Evict of a Modified line
   is skipped. *)
let prop_directory_projects_protocol =
  let agents = 3 and lines = 4 in
  let op_gen =
    QCheck.Gen.(
      map3
        (fun a l k -> (a, l, k))
        (int_bound (agents - 1))
        (int_bound (lines - 1))
        (int_bound 2))
  in
  QCheck.Test.make
    ~name:"multi-writer directory is Protocol's home-side MSI projection"
    ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 80) op_gen))
    (fun ops ->
      let d = Directory.create () in
      let model = Array.make_matrix agents lines Protocol.Invalid in
      let bus l ~from event =
        for o = 0 to agents - 1 do
          if o <> from then model.(o).(l) <- fst (Protocol.on_bus model.(o).(l) event)
        done
      in
      let holds_m l = List.find_opt (fun o -> model.(o).(l) = Protocol.Modified)
          (List.init agents Fun.id)
      in
      let projection_ok l =
        let m = holds_m l in
        let shared_agents =
          List.filter (fun o -> model.(o).(l) = Protocol.Shared)
            (List.init agents Fun.id)
        in
        (* no agent ever reaches Exclusive: the home grants reads Shared *)
        Array.for_all (fun row -> row.(l) <> Protocol.Exclusive) model
        && Directory.owner d ~line:l = m
        && (match Directory.state d ~line:l with
           | Directory.Modified -> m <> None
           | Directory.Shared ->
               m = None
               && List.for_all
                    (fun o -> List.mem o (Directory.sharers d ~line:l))
                    shared_agents
           | Directory.Invalid -> m = None && shared_agents = [])
        && Directory.audit d = []
      in
      List.for_all
        (fun (a, l, k) ->
          let ev =
            match k with 0 -> Protocol.Read | 1 -> Protocol.Write | _ -> Protocol.Evict
          in
          let st', action = Protocol.on_processor model.(a).(l) ev in
          action = Protocol.Writeback
          ||
          let grant_ok =
            match action with
            | Protocol.Issue_read ->
                (* read miss: home grants Shared (E stays unreachable) *)
                let expected_peer = holds_m l in
                let g = Directory.acquire d ~line:l ~tenant:a ~write:false in
                model.(a).(l) <- Protocol.Shared;
                bus l ~from:a Protocol.Bus_read;
                g.Directory.g_peer = expected_peer
                && (expected_peer = None || g.Directory.g_peer_dirty)
            | Protocol.Issue_rfo | Protocol.Issue_invalidate ->
                let expected_peer = holds_m l in
                let expected_dead =
                  List.filter
                    (fun o -> o <> a && model.(o).(l) = Protocol.Shared)
                    (List.init agents Fun.id)
                in
                let g = Directory.acquire d ~line:l ~tenant:a ~write:true in
                model.(a).(l) <- Protocol.Modified;
                bus l ~from:a
                  (if action = Protocol.Issue_rfo then
                     Protocol.Bus_read_for_ownership
                   else Protocol.Bus_invalidate);
                g.Directory.g_peer = expected_peer
                && List.for_all
                     (fun o -> List.mem o g.Directory.g_invalidated)
                     expected_dead
            | Protocol.Writeback -> false (* skipped above *)
            | Protocol.No_bus_action ->
                (* hits and silent clean drops: the home learns nothing;
                   write hits still route through acquire (as the rack
                   does) and must charge nothing *)
                (match ev with
                | Protocol.Write ->
                    let g = Directory.acquire d ~line:l ~tenant:a ~write:true in
                    model.(a).(l) <- st';
                    g.Directory.g_peer = None && g.Directory.g_invalidated = []
                | Protocol.Read | Protocol.Evict ->
                    model.(a).(l) <- st';
                    true)
            | Protocol.Supply_data -> false (* never a processor action *)
          in
          grant_ok && projection_ok l)
        ops)

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_coherence"
    [
      ( "fmem",
        [
          Alcotest.test_case "insert/lookup" `Quick test_fmem_insert_lookup;
          Alcotest.test_case "set-associative eviction" `Quick test_fmem_set_eviction;
          Alcotest.test_case "dirty bitmap" `Quick test_fmem_dirty_bitmap;
          Alcotest.test_case "victim carries dirt" `Quick test_fmem_victim_carries_dirt;
          Alcotest.test_case "explicit evict" `Quick test_fmem_explicit_evict;
          Alcotest.test_case "mask edges" `Quick test_fmem_mask_edges;
        ] );
      qsuite "fmem-props" [ prop_fmem_resident_bound; prop_fmem_insert_hits ];
      ( "fmem-policies",
        [
          Alcotest.test_case "fifo vs lru" `Quick test_fmem_fifo_policy;
          Alcotest.test_case "random picks resident" `Quick test_fmem_random_policy_valid;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "read/write/evict" `Quick test_protocol_read_write_evict;
          Alcotest.test_case "silent clean drop" `Quick test_protocol_silent_clean_drop;
          Alcotest.test_case "snoop supplies data" `Quick test_protocol_snoop_supplies_data;
        ] );
      qsuite "protocol-props" [ prop_protocol_dirty_never_escapes_silently ];
      ( "directory",
        [
          Alcotest.test_case "counters" `Quick test_directory_counters;
          Alcotest.test_case "acquire handoff" `Quick test_directory_acquire_handoff;
          Alcotest.test_case "acquire downgrade + rfo" `Quick
            test_directory_acquire_downgrade_and_rfo;
        ] );
      qsuite "directory-props" [ prop_directory_projects_protocol ];
    ]
