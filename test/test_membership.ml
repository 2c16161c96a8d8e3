(* Tests for lease-based membership and partition-tolerant recovery: the
   suspicion state machine over the virtual clock, false-positive
   declarations under asymmetric partitions, fencing-epoch rejection of
   the returning node's stale deliveries, minted backing-id hygiene at
   the controller, interruptible re-replication under a second fault,
   and bit-reproducibility of partitioned runs. *)

open Kona
module Membership = Kona_membership.Membership
module Backoff = Kona_util.Backoff
module Histogram = Kona_util.Histogram
module Units = Kona_util.Units
module Rng = Kona_util.Rng
module Heap = Kona_workloads.Heap
module Workloads = Kona_workloads.Workloads
module Fault_spec = Kona_faults.Fault_spec
module System = Kona_baselines.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Membership: the lease state machine in isolation *)

let make_detector ?(heartbeat_ns = 10_000) ?(lease_ns = 50_000) () =
  let cut = Hashtbl.create 4 in
  let deaths = ref [] in
  let charged = ref 0 in
  let m =
    Membership.create ~heartbeat_ns ~lease_ns
      ~reachable:(fun ~id ~at:_ -> not (Hashtbl.mem cut id))
      ~on_dead:(fun ~id ~at -> deaths := (id, at) :: !deaths)
      ~charge:(fun ~ns -> charged := !charged + ns)
      ()
  in
  (m, cut, deaths, charged)

let test_create_validation () =
  let mk ~heartbeat_ns ~lease_ns () =
    Membership.create ~heartbeat_ns ~lease_ns
      ~reachable:(fun ~id:_ ~at:_ -> true)
      ~on_dead:(fun ~id:_ ~at:_ -> ())
      ~charge:(fun ~ns:_ -> ())
      ()
  in
  check_bool "heartbeat must be positive" true
    (raises_invalid (fun () -> mk ~heartbeat_ns:0 ~lease_ns:50_000 ()));
  check_bool "lease must cover a heartbeat" true
    (raises_invalid (fun () -> mk ~heartbeat_ns:10_000 ~lease_ns:5_000 ()))

let test_lease_lifecycle () =
  let m, cut, deaths, charged = make_detector () in
  Membership.track m ~id:0 ~now:0;
  Membership.track m ~id:1 ~now:0;
  Membership.track m ~id:0 ~now:0 (* idempotent *);
  check_bool "both tracked" true
    (Membership.state m ~id:0 <> None && Membership.state m ~id:1 <> None);
  Membership.tick m ~now:40_000;
  check_bool "heartbeating keeps nodes alive" true
    (Membership.state m ~id:0 = Some Membership.Alive
    && Membership.state m ~id:1 = Some Membership.Alive);
  check_bool "untracked id has no state" true (Membership.state m ~id:9 = None);
  (* Cut node 1's heartbeats: silence > lease suspects it, silence > 2x
     lease declares it dead; node 0 is untouched throughout. *)
  Hashtbl.replace cut 1 ();
  Membership.tick m ~now:100_000;
  check_bool "silence beyond the lease suspects" true
    (Membership.state m ~id:1 = Some Membership.Suspected);
  check_int "suspicion counted" 1 (Membership.suspicions m);
  check_bool "no death yet" true (!deaths = []);
  Membership.tick m ~now:200_000;
  check_bool "silence beyond twice the lease kills" true
    (Membership.state m ~id:1 = Some Membership.Dead);
  check_int "death fired once, for node 1" 1 (List.length !deaths);
  check_int "dead node named" 1 (fst (List.hd !deaths));
  check_int "declared_dead counted" 1 (Membership.declared_dead m);
  check_bool "survivor still alive" true
    (Membership.state m ~id:0 = Some Membership.Alive);
  check_int "detection latency recorded" 1
    (Histogram.count (Membership.detect_latency m));
  check_bool "evaluation charged the clock" true (!charged > 0);
  (* A dead declaration is final: more silence fires nothing new. *)
  Membership.tick m ~now:400_000;
  check_int "death fires once" 1 (Membership.declared_dead m)

(* [tick] skips its walk while no node owes a beat, yet every instant owed
   by [now] is evaluated on the first tick that reaches it, for a node
   tracked between two ticks too.  Each evaluated instant charges 100 ns. *)
let test_tick_evaluates_every_owed_beat () =
  let m, cut, deaths, charged = make_detector () in
  let beats () = !charged / 100 in
  Membership.track m ~id:0 ~now:5_000;
  Membership.tick m ~now:9_999;
  check_int "no beat owed before 10us" 0 (beats ());
  Membership.tick m ~now:10_000;
  check_int "node 0's first beat" 1 (beats ());
  Membership.track m ~id:1 ~now:12_000;
  Membership.tick m ~now:19_999;
  check_int "nothing owed until 20us" 1 (beats ());
  Membership.tick m ~now:20_000;
  check_int "both nodes' 20us beats" 3 (beats ());
  Hashtbl.replace cut 1 ();
  Membership.tick m ~now:150_000;
  check_int "every instant up to 150us" (15 + 14) (beats ());
  Alcotest.(check (list (pair int int)))
    "node 1 dead at its first instant past twice the lease" [ (1, 130_000) ] !deaths;
  Membership.tick m ~now:150_000;
  check_int "a repeated instant evaluates nothing" 29 (beats ())

let test_suspicion_clears_on_comeback () =
  let m, cut, deaths, _ = make_detector () in
  Membership.track m ~id:0 ~now:0;
  Hashtbl.replace cut 0 ();
  Membership.tick m ~now:70_000;
  check_bool "suspected" true (Membership.state m ~id:0 = Some Membership.Suspected);
  Hashtbl.remove cut 0;
  Membership.tick m ~now:90_000;
  check_bool "comeback clears the suspicion" true
    (Membership.state m ~id:0 = Some Membership.Alive);
  check_int "clearance counted" 1 (Membership.suspicions_cleared m);
  check_bool "never died" true (!deaths = [] && Membership.declared_dead m = 0);
  check_int "no false positive either" 0 (Membership.false_positives m)

let test_false_positive_counted_once () =
  let m, cut, _, _ = make_detector () in
  Membership.track m ~id:0 ~now:0;
  Hashtbl.replace cut 0 ();
  Membership.tick m ~now:200_000;
  check_bool "declared dead" true (Membership.state m ~id:0 = Some Membership.Dead);
  (* The partition heals: the node heartbeats again.  The declaration
     stands, and the comeback counts once no matter how long it lives. *)
  Hashtbl.remove cut 0;
  Membership.tick m ~now:300_000;
  Membership.tick m ~now:500_000;
  check_bool "declaration stands" true
    (Membership.state m ~id:0 = Some Membership.Dead);
  check_int "false positive counted once" 1 (Membership.false_positives m)

(* ------------------------------------------------------------------ *)
(* Recovery scheduler: resumable FIFO of named tasks *)

module Recovery = Kona_membership.Recovery

let test_recovery_fifo () =
  let r = Recovery.create () in
  check_bool "fresh queue idle" true (Recovery.pending r = [] && Recovery.step r ~now:0 = `Idle);
  let steps_a = ref 0 in
  ignore
    (Recovery.enqueue r ~name:"a" (fun ~now:_ ->
         incr steps_a;
         if !steps_a < 3 then `Again else `Done));
  ignore (Recovery.enqueue r ~name:"b" (fun ~now:_ -> `Done));
  check_bool "fifo order" true (Recovery.pending r = [ "a"; "b" ]);
  check_bool "head steps first" true (Recovery.step r ~now:0 = `Stepped "a");
  check_bool "resumes the same task" true (Recovery.step r ~now:1 = `Stepped "a");
  check_bool "finishes in place" true (Recovery.step r ~now:2 = `Finished "a");
  check_bool "then the next" true (Recovery.step r ~now:3 = `Finished "b");
  check_bool "drained" true (Recovery.pending r = []);
  check_int "completions counted" 2 (Recovery.completed r)

let test_recovery_enqueue_during_step () =
  (* Failover queues re-replication from inside its own step: a task
     enqueued while the head task is finishing must survive — a stale
     snapshot of the tail would silently drop it. *)
  let r = Recovery.create () in
  ignore
    (Recovery.enqueue r ~name:"failover" (fun ~now:_ ->
         ignore (Recovery.enqueue r ~name:"re-replicate" (fun ~now:_ -> `Done));
         `Done));
  check_bool "head finished" true (Recovery.step r ~now:0 = `Finished "failover");
  check_bool "follow-up task survived its parent's completion" true
    (Recovery.pending r = [ "re-replicate" ]);
  check_bool "and runs" true (Recovery.step r ~now:1 = `Finished "re-replicate")

let test_recovery_cancel () =
  let r = Recovery.create () in
  let h = Recovery.enqueue r ~name:"drain" (fun ~now:_ -> `Again) in
  ignore (Recovery.enqueue r ~name:"drain" (fun ~now:_ -> `Again));
  check_bool "cancel by handle" true (Recovery.cancel r ~handle:h);
  check_bool "handle is gone" true (not (Recovery.cancel r ~handle:h));
  check_int "cancel by name sweeps the rest" 1 (Recovery.cancel_named r ~name:"drain");
  check_bool "queue empty" true (Recovery.pending r = []);
  check_int "cancellations counted" 2 (Recovery.cancelled r)

(* ------------------------------------------------------------------ *)
(* Backoff: one retry/backoff policy for every resending layer *)

let test_backoff_shape () =
  let c = Backoff.default in
  (* A QP that loses every attempt waits base * 2^min(k, cap_shift) after
     attempt k and gives up after qp_retry_max retries. *)
  let p = { c with Backoff.base_ns = 500; qp_retry_max = 3; cap_shift = 1 } in
  let qp =
    Kona_rdma.Qp.create ~backoff:p
      ~inject:(fun () -> Some `Drop)
      ~clock:(Kona_util.Clock.create ()) ()
  in
  (match Kona_rdma.Qp.post qp [ Kona_rdma.Qp.wqe Kona_rdma.Qp.Write ~len:64 ] with
  | () -> Alcotest.fail "expected Retry_exhausted"
  | exception Kona_rdma.Qp.Retry_exhausted { attempts } ->
      check_int "the QP's budget is the policy's" 4 attempts);
  check_int "the QP's timer and doubling cap are the policy's"
    (500 + 1_000 + 1_000)
    (Kona_rdma.Qp.fault_delay_ns qp);
  let c' = Backoff.with_retry_max c 3 in
  check_bool "retry-max overrides both layers" true
    (c'.Backoff.qp_retry_max = 3 && c'.Backoff.rpc_retry_max = 3);
  let c'' = Backoff.with_base_ns c 500 in
  check_int "base override" 500 c''.Backoff.base_ns;
  check_bool "other fields preserved" true
    (c''.Backoff.qp_retry_max = c.Backoff.qp_retry_max
    && c''.Backoff.cap_shift = c.Backoff.cap_shift)

(* ------------------------------------------------------------------ *)
(* Controller: minted backing ids never collide with registered nodes *)

let test_minted_ids_disjoint () =
  let c = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c (Memory_node.create ~id:0 ~capacity:(Units.kib 64));
  Rack_controller.register_node c (Memory_node.create ~id:1 ~capacity:(Units.kib 64));
  let a = Rack_controller.mint_backing_id c in
  let b = Rack_controller.mint_backing_id c in
  check_bool "minted ids live above the registered space" true (a >= 1_000 && b > a);
  check_bool "registering a minted id is refused" true
    (raises_invalid (fun () ->
         Rack_controller.register_node c
           (Memory_node.create ~id:a ~capacity:(Units.kib 64))));
  (* A node registered in the minted range first makes the mint skip it:
     ids stay unique even when the spaces are abused. *)
  let c2 = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c2
    (Memory_node.create ~id:1_000 ~capacity:(Units.kib 64));
  let m = Rack_controller.mint_backing_id c2 in
  check_bool "mint skips registered ids" true (m <> 1_000)

(* ------------------------------------------------------------------ *)
(* Runtime end to end: partition -> false positive -> fencing *)

let run_partitioned ?(heartbeat_ns = 100_000) ?(lease_ns = 1_000_000)
    ?(dur = "5ms") () =
  let faults =
    Fault_spec.parse_exn (Printf.sprintf "partition@200us:dur=%s,nodes=0" dur)
  in
  let config =
    {
      Runtime.default_config with
      fmem_pages = 64;
      replicas = 1;
      faults;
      fault_seed = 11;
      heartbeat_ns = Some heartbeat_ns;
      lease_ns;
    }
  in
  let spec = Workloads.find "kv-uniform" in
  let rt, heap =
    System.kona ~config
      ~heap_capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
      ()
  in
  spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
  Runtime.drain rt;
  (rt, heap, Runtime.controller rt)

let integrity_ok rt heap =
  let c = System.check heap (Runtime.resource_manager rt) in
  c.System.checked > 0 && c.System.mismatches = 0 && c.System.lost = 0

let test_false_positive_fencing_end_to_end () =
  let rt, heap, controller = run_partitioned () in
  check_int "one partition window" 1 (Runtime.count rt "partition.started");
  check_int "the healthy node was declared dead" 1
    (Runtime.count rt "membership.declared_dead");
  check_int "and came back: false positive" 1
    (Runtime.count rt "membership.false_positives");
  check_bool "failover ran on lease expiry" true
    (Histogram.count (Runtime.histogram rt "failover.latency_ns") = 1);
  (* Every stale delivery the returning node attempts is rejected by the
     fence — and nothing else is (attempts = receiver stale verdicts). *)
  let rejects = Runtime.count rt "fencing.rejects" in
  check_bool "fence rejected the returning node's stale writes" true (rejects > 0);
  check_int "rejects = stale-epoch attempts" rejects
    (List.assoc "seq.stale_epochs" (Runtime.integrity_counters rt));
  check_int "no write landed past the fence" 0
    (Runtime.count rt "fencing.post_fence_writes");
  check_bool "run not degraded" true (Runtime.degraded rt = None);
  check_bool "recovery converged" true (Runtime.recovery_pending rt = []);
  check_bool "remote memory matches the heap" true (integrity_ok rt heap);
  check_bool "replication expected" true (Rack_controller.replicas controller > 0);
  check_int "zero divergence" 0 (Rack_controller.divergent_mirrors controller)

let test_short_partition_is_tolerated () =
  (* A window shorter than the lease never reaches suspicion expiry:
     no declaration, no failover, no fencing — and no data loss. *)
  let rt, heap, controller = run_partitioned ~dur:"150us" () in
  check_int "window seen" 1 (Runtime.count rt "partition.started");
  check_int "nobody declared dead" 0
    (Runtime.count rt "membership.declared_dead");
  check_int "no fencing epoch minted" 0
    (Rack_controller.fencing_epoch controller);
  check_bool "remote memory matches the heap" true (integrity_ok rt heap)

let test_partitioned_run_reproducible () =
  let fingerprint () =
    let rt, _, _ = run_partitioned () in
    (Runtime.integrity_counters rt, Runtime.stats rt, Runtime.elapsed_ns rt)
  in
  check_bool "same seed, bit-identical counters and clocks" true
    (fingerprint () = fingerprint ())

(* ------------------------------------------------------------------ *)
(* Double fault: the promoted mirror crashes mid-re-replication *)

let test_crash_promoted_mirror_mid_re_replication () =
  let controller = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 16));
  Rack_controller.register_node controller
    (Memory_node.create ~id:1 ~capacity:(Units.mib 16));
  let config =
    {
      Runtime.default_config with
      fmem_pages = 64;
      replicas = 2;
      (* leased detection: failover waits for lease expiry, so the
         resumable recovery tasks are observable between polls *)
      heartbeat_ns = Some 10_000;
      lease_ns = 50_000;
    }
  in
  let rt, heap =
    System.kona ~config ~controller ~heap_capacity:(Units.mib 8) ()
  in
  let region = Units.mib 4 in
  let base = Heap.alloc heap region in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 8_000 do
    Heap.write_u64 heap
      (base + (Rng.int rng ((region - 8) / 8) * 8))
      (Rng.int rng 1_000_000)
  done;
  Runtime.drain rt;
  (* Each write advances the virtual clock and polls faults once: the
     lease expires, the failover task steps, re-replication enqueues —
     and between polls the pending list is observable. *)
  let tick () = Heap.write_u64 heap base 42 in
  let pump_until cond =
    let guard = ref 0 in
    while (not (cond ())) && !guard < 2_000_000 do
      incr guard;
      tick ()
    done;
    cond ()
  in
  (* First fault: the store backing logical node 1 fail-stops.  Its
     heartbeats cease; the lease declares it dead; failover promotes one
     of its two mirrors and enqueues stepwise re-replication. *)
  Runtime.crash_node rt ~id:1;
  check_bool "re-replication enqueued after leased declaration" true
    (pump_until (fun () ->
         List.mem "re-replicate:1" (Runtime.recovery_pending rt)));
  check_int "a real failure, not a false positive" 0
    (Runtime.count rt "membership.false_positives");
  let promoted = Memory_node.id (Rack_controller.node controller ~id:1) in
  check_bool "a minted mirror took over" true (promoted >= 1_000);
  (* Second fault, mid-recovery: the promoted store crashes while the
     re-replication task is still pending.  The resumable task re-reads
     its source per step, so it re-plans instead of raising. *)
  Runtime.crash_node rt ~id:promoted;
  check_bool "second declaration and promotion" true
    (pump_until (fun () ->
         Runtime.count rt "membership.declared_dead" = 2
         && Memory_node.id (Rack_controller.node controller ~id:1) <> promoted));
  let promoted2 = Memory_node.id (Rack_controller.node controller ~id:1) in
  check_bool "the surviving mirror was promoted" true (promoted2 >= 1_000);
  (* Drive recovery to convergence the way the rack engine does. *)
  let guard = ref 0 in
  while Runtime.recovery_pending rt <> [] && !guard < 10_000 do
    incr guard;
    ignore (Runtime.step_recovery rt)
  done;
  check_bool "recovery converged" true (Runtime.recovery_pending rt = []);
  check_int "both failovers stamped" 2
    (Histogram.count (Runtime.histogram rt "failover.latency_ns"));
  Runtime.drain rt;
  check_bool "run survived both faults" true (Runtime.degraded rt = None);
  check_bool "remote memory matches the heap" true (integrity_ok rt heap);
  check_bool "replication expected" true (Rack_controller.replicas controller > 0);
  check_int "zero divergence after overlapping faults" 0
    (Rack_controller.divergent_mirrors controller)

(* ------------------------------------------------------------------ *)
(* The poll guard: [sink] polls only once the clocks reach the earliest
   time a fault, lease, deferred delivery, recovery task or scrub sweep
   can act.  Work scheduled between accesses lowers that time, so each
   effect below lands on the same access as when every access polled;
   the pinned indices are those of an every-access poll. *)

(* Replay 12,000 seeded 8-byte writes over 2 MiB on a fresh runtime built
   from [config], fencing the CL log before every 100th write (as the
   rack's migrator does, so deliveries land while the replay runs) and
   calling [before rt i] ahead of write [i].  Returns for each probe the
   first write after which it holds, or -1. *)
let first_writes ~config ?(before = fun _ _ -> ()) probes =
  let rt, heap = System.kona ~config ~heap_capacity:(Units.mib 4) () in
  let region = Units.mib 2 in
  let base = Heap.alloc heap region in
  let rng = Rng.create ~seed:3 in
  let found = Array.make (List.length probes) (-1) in
  for i = 0 to 11_999 do
    if i mod 100 = 0 then Runtime.flush_log rt;
    before rt i;
    Heap.write_u64 heap (base + (Rng.int rng (region / 8) * 8)) i;
    List.iteri (fun k probe -> if found.(k) < 0 && probe rt then found.(k) <- i) probes
  done;
  Runtime.drain rt;
  check_bool "remote memory matches the heap" true (integrity_ok rt heap);
  Array.to_list found

let at_least name n rt = Runtime.count rt name >= n
let pinned = Alcotest.(check (list int))

let test_poll_armed_partition () =
  (* A partition armed ahead of write 2,000 starts on that write, and the
     deliveries it defers land on the first write past its heal. *)
  let config = { Runtime.default_config with fmem_pages = 64 } in
  let before rt i =
    if i = 2_000 then
      Runtime.arm_fault rt
        (Fault_spec.Partition { at_ns = 0; dur_ns = 1_000_000; ids = [ 0 ] })
  in
  pinned "started, deferred, flushed" [ 2_000; 2_100; 2_297 ]
    (first_writes ~config ~before
       [
         at_least "partition.started" 1;
         at_least "partition.deferred" 1;
         at_least "partition.flushed" 1;
       ])

let test_poll_crash_on_leased_runtime () =
  (* A crash between writes on a leased runtime: the lease declares the
     store dead, failover promotes its mirror and re-replication runs.  A
     mirror holds no lease, so its crash queues re-replication at once,
     outside any poll. *)
  let config =
    {
      Runtime.default_config with
      fmem_pages = 64;
      replicas = 1;
      heartbeat_ns = Some 100_000;
      lease_ns = 500_000;
    }
  in
  let before rt i =
    if i = 3_000 then Runtime.crash_node rt ~id:1;
    if i = 6_000 then
      List.iter
        (fun m -> Runtime.crash_node rt ~id:(Memory_node.id m))
        (Rack_controller.mirrors (Runtime.controller rt) ~id:0)
  in
  pinned "declared, failed over, re-replicated, mirror replaced"
    [ 3_322; 3_322; 3_327; 6_004 ]
    (first_writes ~config ~before
       [
         at_least "membership.declared_dead" 1;
         at_least "replication.failovers" 1;
         at_least "recovery.tasks_completed" 2;
         at_least "recovery.tasks_completed" 3;
       ])

let test_poll_deferred_delivery () =
  (* A partition from the create-time plan on a scrubbed runtime: its
     deferred deliveries land on the first write past the heal, and the
     scrubber's second sweep starts on the first write past its due time. *)
  let config =
    {
      Runtime.default_config with
      fmem_pages = 64;
      faults = Fault_spec.parse_exn "partition@5ms:dur=1ms,nodes=0";
      scrub_interval_ns = Some 2_000_000;
    }
  in
  pinned "started, deferred, flushed, two sweeps" [ 1_469; 1_500; 1_754; 1_177 ]
    (first_writes ~config
       [
         at_least "partition.started" 1;
         at_least "partition.deferred" 1;
         at_least "partition.flushed" 1;
         at_least "scrub.sweeps" 2;
       ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kona_membership"
    [
      ( "lease",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "lifecycle" `Quick test_lease_lifecycle;
          Alcotest.test_case "every owed beat evaluated" `Quick
            test_tick_evaluates_every_owed_beat;
          Alcotest.test_case "suspicion clears on comeback" `Quick
            test_suspicion_clears_on_comeback;
          Alcotest.test_case "false positive counted once" `Quick
            test_false_positive_counted_once;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fifo of resumable tasks" `Quick test_recovery_fifo;
          Alcotest.test_case "enqueue during finishing step" `Quick
            test_recovery_enqueue_during_step;
          Alcotest.test_case "cancellation" `Quick test_recovery_cancel;
        ] );
      ("backoff", [ Alcotest.test_case "unified shape" `Quick test_backoff_shape ]);
      ( "controller-ids",
        [ Alcotest.test_case "minted ids disjoint" `Quick test_minted_ids_disjoint ]
      );
      ( "fencing",
        [
          Alcotest.test_case "false-positive fencing end to end" `Quick
            test_false_positive_fencing_end_to_end;
          Alcotest.test_case "short partition tolerated" `Quick
            test_short_partition_is_tolerated;
          Alcotest.test_case "partitioned run reproducible" `Quick
            test_partitioned_run_reproducible;
        ] );
      ( "poll-guard",
        [
          Alcotest.test_case "armed partition" `Quick test_poll_armed_partition;
          Alcotest.test_case "crash on a leased runtime" `Quick
            test_poll_crash_on_leased_runtime;
          Alcotest.test_case "deferred delivery" `Quick test_poll_deferred_delivery;
        ] );
      ( "double-fault",
        [
          Alcotest.test_case "crash promoted mirror mid-re-replication" `Quick
            test_crash_promoted_mirror_mid_re_replication;
        ] );
    ]
