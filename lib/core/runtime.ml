open Kona_util
module Access = Kona_trace.Access
module Hierarchy = Kona_cachesim.Hierarchy
module Fmem = Kona_coherence.Fmem
module Nic = Kona_rdma.Nic
module Qp = Kona_rdma.Qp
module Rpc = Kona_rdma.Rpc
module Cache = Kona_cachesim.Cache
module Hub = Kona_telemetry.Hub
module Registry = Kona_telemetry.Registry
module Snapshot = Kona_telemetry.Snapshot
module Tracer = Kona_telemetry.Tracer
module Fault_spec = Kona_faults.Fault_spec
module Injector = Kona_faults.Injector
module Sequencer = Kona_integrity.Sequencer
module Scrubber = Kona_integrity.Scrubber
module Membership = Kona_membership.Membership
module Recovery = Kona_membership.Recovery

(* Constants: no configuration varies them. *)
let cost = Cost_model.default
let rdma = Kona_rdma.Cost.default

type config = {
  cache_config : Hierarchy.config;
  fmem_pages : int;
  fmem_policy : Fmem.policy;
  log_capacity : int;
  replicas : int;
  mce_threshold_ns : int option;
  prefetch : bool;
  sq_depth : int option;
  signal_interval : int;
  faults : Fault_spec.t;
  fault_seed : int;
  check_replicas : bool;
  scrub_interval_ns : int option;
  verify_checksums : bool;
  tenant : string option;
  stream_base : int;
  backoff : Backoff.config;
  heartbeat_ns : int option;
  lease_ns : int;
}

let default_config =
  {
    cache_config = Hierarchy.default_config;
    fmem_pages = 1024;
    fmem_policy = Fmem.Lru;
    log_capacity = 512;
    replicas = 0;
    mce_threshold_ns = None;
    prefetch = false;
    sq_depth = None;
    signal_interval = 1;
    faults = [];
    fault_seed = 42;
    check_replicas = false;
    scrub_interval_ns = None;
    verify_checksums = false;
    tenant = None;
    stream_base = 0;
    backoff = Backoff.default;
    heartbeat_ns = None;
    lease_ns = 200_000;
  }

(* End-to-end integrity accounting: the detection side feeds from CL-log
   delivery reports (wire-CRC rejects, sequence verdicts) and the scrub
   side from at-rest checksum sweeps.  Quarantine and the flip-arming
   registry are keyed by (copy node id, absolute line address) — copies
   are physical nodes, so the keys survive failover re-targeting. *)
type integrity_state = {
  quarantine : (int * int, unit) Hashtbl.t;
  armed : (int * int, int) Hashtbl.t; (* -> virtual time the flip landed *)
  detect_latency : Histogram.t;
  unrepairable_pages : (int, unit) Hashtbl.t; (* vpage -> declared lost *)
  (* (copy id, line) pairs declared unrepairable: they stay corrupt, so
     later verifications must neither count nor repair them again.  A
     pair is forgotten when an overwrite heals the line or a fresh flip
     re-arms it. *)
  declared : (int * int, unit) Hashtbl.t;
  mutable flips_armed : int;
  mutable flips_found : int;
  mutable flips_healed : int;
  mutable torn_events : int;
  mutable crc_rejected_lines : int;
  mutable seq_duplicates : int;
  mutable seq_gaps : int;
  mutable seq_stale : int;
  mutable stale_reads_detected : int;
  mutable repaired_lines : int;
  mutable repair_bytes : int;
  mutable unrepairable_lines : int;
}

let create_integrity_state () =
  {
    quarantine = Hashtbl.create 32;
    armed = Hashtbl.create 32;
    detect_latency = Histogram.create ();
    unrepairable_pages = Hashtbl.create 8;
    declared = Hashtbl.create 8;
    flips_armed = 0;
    flips_found = 0;
    flips_healed = 0;
    torn_events = 0;
    crc_rejected_lines = 0;
    seq_duplicates = 0;
    seq_gaps = 0;
    seq_stale = 0;
    stale_reads_detected = 0;
    repaired_lines = 0;
    repair_bytes = 0;
    unrepairable_lines = 0;
  }

type t = {
  config : config;
  app_clock : Clock.t;
  bg_clock : Clock.t;
  controller : Rack_controller.t;
  hierarchy : Hierarchy.t;
  fmem : Fmem.t;
  rm : Resource_manager.t;
  rpc : Rpc.t;
  log : Cl_log.t;
  injector : Injector.t;
  caching : Caching_handler.t;
  tracker : Dirty_tracker.t;
  evictor : Eviction_handler.t;
  nic : Nic.t;
  fetch_qp : Qp.t;
  evict_qp : Qp.t;
  prefetch_qp : Qp.t option;
  registry : Registry.t; (* the hub's (scoped) registry, or a private one *)
  tracer : Tracer.t option;
  failover_latency : Histogram.t;
  recovery_latency : Histogram.t;
  integrity : integrity_state;
  mutable scrubber : Scrubber.t option; (* tied after [t] exists *)
  mutable membership : Membership.t option; (* tied after [t] exists *)
  recovery : Recovery.t;
  (* Asymmetric partitions: physical node id -> heal virtual time.  A
     partitioned node is healthy but unreachable — heartbeats miss and
     CL-log deliveries are deferred (below) instead of lost. *)
  partition_until : (int, int) Hashtbl.t;
  mutable deferred : (int * (unit -> unit)) list; (* (heal_ns, fire), FIFO *)
  mutable deferred_deliveries : int;
  mutable deferred_flushed : int;
  mutable recovery_bytes : int;
  mutable heap_pages_restored : int;
  mutable heap_pages_lost : int;
  mutable degraded_reason : string option;
  mutable accesses : int;
  on_evict : (vpage:int -> dirty:bool -> unit) ref;
  mutable invalidations_received : int;
}

(* Publish the whole runtime namespace into [reg].  Everything is pull-style
   ([counter_fn]/[gauge_fn] over existing component tallies) except the
   latency distributions, which are the components' own histograms
   registered by reference — components stay telemetry-free.  A closure
   costs nothing until a snapshot or a report view reads it. *)
let register_metrics t reg =
  let c ?labels name f = Registry.counter_fn reg ?labels name f in
  let g ?labels name f = Registry.gauge_fn reg ?labels name f in
  (* Application / clocks *)
  c "runtime.accesses" (fun () -> t.accesses);
  g "clock.app_ns" (fun () -> Clock.now t.app_clock);
  g "clock.bg_ns" (fun () -> Clock.now t.bg_clock);
  (* Demand-fetch path *)
  Registry.histogram_ref reg "fetch.latency_ns"
    (Caching_handler.fetch_latency t.caching);
  c "fetch.pages" (fun () -> Caching_handler.pages_fetched t.caching);
  c "fetch.bytes" (fun () -> Caching_handler.bytes_fetched t.caching);
  c "fetch.mce_raised" (fun () -> Caching_handler.mce_raised t.caching);
  c "prefetch.issued" (fun () -> Caching_handler.prefetches_issued t.caching);
  c "prefetch.useful" (fun () -> Caching_handler.prefetches_useful t.caching);
  (* FMem: demand-level hit/miss plus probe-level and per-set skew *)
  c "fmem.hits" (fun () -> Caching_handler.fmem_hits t.caching);
  c "fmem.misses" (fun () -> Caching_handler.fmem_misses t.caching);
  g "fmem.resident" (fun () -> Fmem.resident t.fmem);
  c "fmem.evictions" (fun () -> Fmem.evictions t.fmem);
  c "fmem.probe.hits" (fun () -> Fmem.probe_hits t.fmem);
  c "fmem.probe.misses" (fun () -> Fmem.probe_misses t.fmem);
  g "fmem.set.max_misses" (fun () ->
      let worst = ref 0 in
      for s = 0 to Fmem.nsets t.fmem - 1 do
        let _, misses, _ = Fmem.set_counters t.fmem ~set:s in
        if misses > !worst then worst := misses
      done;
      !worst);
  (* CPU cache hierarchy *)
  List.iter
    (fun (lvl, cache) ->
      let labels = [ ("level", lvl) ] in
      c ~labels "cache.accesses" (fun () ->
          let s = Cache.stats cache in
          s.Cache.reads + s.Cache.writes);
      c ~labels "cache.misses" (fun () ->
          let s = Cache.stats cache in
          s.Cache.read_misses + s.Cache.write_misses))
    [
      ("l1", Hierarchy.l1 t.hierarchy);
      ("l2", Hierarchy.l2 t.hierarchy);
      ("llc", Hierarchy.llc t.hierarchy);
    ];
  c "hierarchy.memory_accesses" (fun () -> Hierarchy.memory_accesses t.hierarchy);
  c "hierarchy.writebacks" (fun () -> Hierarchy.writebacks t.hierarchy);
  c "coherence.invalidations" (fun () -> t.invalidations_received);
  (* Dirty tracking and eviction *)
  g "tracker.lines" (fun () -> Dirty_tracker.lines_tracked t.tracker);
  c "tracker.orphans" (fun () -> Dirty_tracker.orphans t.tracker);
  c "evict.pages" (fun () -> Eviction_handler.pages_evicted t.evictor);
  c "evict.clean_pages" (fun () -> Eviction_handler.clean_pages t.evictor);
  c "evict.lines" (fun () -> Eviction_handler.lines_evicted t.evictor);
  c "evict.snooped_lines" (fun () -> Eviction_handler.snooped_dirty_lines t.evictor);
  (* CL log: volume, amplification, per-phase time (Fig. 11) *)
  c "cllog.lines" (fun () -> Cl_log.lines_logged t.log);
  c "cllog.appends" (fun () -> Cl_log.appends t.log);
  c "cllog.stale_writebacks" (fun () -> Cl_log.stale_lines t.log);
  c "cllog.flushes" (fun () -> Cl_log.flushes t.log);
  c "cllog.payload_bytes" (fun () -> Cl_log.payload_bytes t.log);
  c "cllog.wire_bytes" (fun () -> Cl_log.wire_bytes t.log);
  c "cllog.amp_bytes" (fun () -> Cl_log.overhead_bytes t.log);
  c "cllog.doorbell_batches" (fun () -> Cl_log.doorbell_batches t.log);
  c "cllog.doorbell_wqes" (fun () -> Cl_log.doorbell_wqes t.log);
  g "cllog.doorbell_batch_peak" (fun () -> Cl_log.doorbell_batch_peak t.log);
  List.iter
    (fun phase ->
      c ~labels:[ ("phase", phase) ] "cllog.phase_ns" (fun () ->
          match List.assoc_opt phase (Cl_log.breakdown_ns t.log) with
          | Some ns -> ns
          | None -> 0))
    [ "bitmap"; "copy"; "rdma"; "ack" ];
  (* RDMA: per-QP accounting plus the shared NIC port *)
  let qps =
    [ ("fetch", Some t.fetch_qp); ("evict", Some t.evict_qp);
      ("prefetch", t.prefetch_qp) ]
  in
  List.iter
    (fun (name, qp) ->
      match qp with
      | None -> ()
      | Some qp ->
          let labels = [ ("qp", name) ] in
          c ~labels "qp.wire_bytes" (fun () -> Qp.wire_bytes qp);
          c ~labels "qp.payload_bytes" (fun () -> Qp.payload_bytes qp);
          c ~labels "qp.posts" (fun () -> Qp.posts qp);
          c ~labels "qp.verbs" (fun () -> Qp.verbs qp);
          c ~labels "qp.signaled" (fun () -> Qp.signaled qp);
          c ~labels "qp.completed" (fun () -> Qp.completed qp);
          c ~labels "qp.window_stalls" (fun () -> Qp.window_stalls qp);
          c ~labels "qp.window_stall_ns" (fun () -> Qp.window_stall_ns qp);
          c ~labels "qp.retransmits" (fun () -> Qp.retransmits qp);
          c ~labels "qp.fault_delay_ns" (fun () -> Qp.fault_delay_ns qp);
          c ~labels "qp.arb_delay_ns" (fun () -> Qp.arb_delay_ns qp);
          g ~labels "qp.outstanding_peak" (fun () -> Qp.outstanding_peak qp);
          g ~labels "qp.in_flight" (fun () -> Qp.in_flight qp))
    qps;
  c "nic.ops" (fun () -> Nic.ops t.nic);
  c "nic.busy_ns" (fun () -> Nic.busy_ns t.nic);
  c "nic.stall_ns" (fun () -> Nic.stall_ns t.nic);
  c "nic.wire_bytes" (fun () ->
      List.fold_left
        (fun acc (_, qp) ->
          match qp with None -> acc | Some qp -> acc + Qp.wire_bytes qp)
        0 qps);
  (* Resource manager / control plane *)
  g "rm.slabs" (fun () -> List.length (Resource_manager.slabs t.rm));
  c "rm.controller_round_trips" (fun () ->
      Resource_manager.controller_round_trips t.rm);
  c "rpc.calls" (fun () -> Rpc.calls t.rpc);
  c "rpc.timeouts" (fun () -> Rpc.timeouts t.rpc);
  c "rpc.retries" (fun () -> Rpc.retries t.rpc);
  (* Fault injection, failover and recovery (§4.5).  The injector's
     partition count is registered as [partition.started] below: every
     partition it hands out opens one window in [start_partition]. *)
  let fault category () =
    Option.value ~default:0 (List.assoc_opt category (Injector.counters t.injector))
  in
  c "faults.injected" (fun () -> Injector.injected t.injector);
  List.iter
    (fun category -> c ("faults." ^ category) (fault category))
    [
      "node_crashes"; "link_flaps"; "rpc_timeouts"; "wqe_drops"; "wqe_delays";
      "bit_flips"; "torn_writes"; "stale_reads"; "dup_delivers";
    ];
  (* Membership, fencing, partitions, interruptible recovery (PR 9) *)
  let mem f = match t.membership with Some m -> f m | None -> 0 in
  c "membership.heartbeats" (fun () -> mem Membership.heartbeats);
  c "membership.suspicions" (fun () -> mem Membership.suspicions);
  c "membership.suspicions_cleared" (fun () -> mem Membership.suspicions_cleared);
  c "membership.declared_dead" (fun () -> mem Membership.declared_dead);
  c "membership.false_positives" (fun () -> mem Membership.false_positives);
  (match t.membership with
  | Some m ->
      Registry.histogram_ref reg "membership.detect_latency_ns"
        (Membership.detect_latency m)
  | None -> ());
  g "fencing.epoch" (fun () -> Rack_controller.fencing_epoch t.controller);
  (* Summed over every store the controller knows of (current and former
     backings): rejects land on displaced ex-primaries, which only the
     former lists still reach. *)
  let stores f () =
    List.fold_left
      (fun acc n -> acc + f n)
      0
      (Rack_controller.all_physical t.controller)
  in
  c "fencing.rejects" (stores Memory_node.fenced_rejects);
  c "fencing.post_fence_writes" (stores Memory_node.post_fence_writes);
  c "partition.started" (fault "partitions");
  c "partition.deferred" (fun () -> t.deferred_deliveries);
  c "partition.flushed" (fun () -> t.deferred_flushed);
  g "partition.active" (fun () ->
      let now = max (Clock.now t.app_clock) (Clock.now t.bg_clock) in
      Hashtbl.fold
        (fun _ heal acc -> if now < heal then acc + 1 else acc)
        t.partition_until 0);
  c "recovery.steps" (fun () -> Recovery.steps t.recovery);
  c "recovery.tasks" (fun () -> Recovery.enqueued t.recovery);
  c "recovery.tasks_completed" (fun () -> Recovery.completed t.recovery);
  c "recovery.tasks_cancelled" (fun () -> Recovery.cancelled t.recovery);
  c "cllog.lost_writes" (fun () -> Cl_log.lost_deliveries t.log);
  c "cllog.lost_lines" (fun () -> Cl_log.lost_lines t.log);
  Registry.histogram_ref reg "failover.latency_ns" t.failover_latency;
  Registry.histogram_ref reg "recovery.latency_ns" t.recovery_latency;
  c "recovery.bytes" (fun () -> t.recovery_bytes);
  c "recovery.heap_pages" (fun () -> t.heap_pages_restored);
  c "recovery.heap_pages_lost" (fun () -> t.heap_pages_lost);
  (* End-to-end integrity: detection, repair, sequencing, scrub (PR 4) *)
  let ist = t.integrity in
  c "integrity.detected" (fun () ->
      ist.flips_found + ist.crc_rejected_lines + ist.seq_duplicates
      + ist.seq_gaps + ist.seq_stale + ist.stale_reads_detected);
  c "integrity.repaired" (fun () -> ist.repaired_lines);
  c "integrity.unrepairable" (fun () -> ist.unrepairable_lines);
  c "integrity.repair_bytes" (fun () -> ist.repair_bytes);
  c "integrity.healed_overwrite" (fun () -> ist.flips_healed);
  c "integrity.crc_rejects" (fun () -> ist.crc_rejected_lines);
  c "integrity.torn_events" (fun () -> ist.torn_events);
  c "integrity.flips_armed" (fun () -> ist.flips_armed);
  c "integrity.flips_found" (fun () -> ist.flips_found);
  c "integrity.stale_reads" (fun () -> ist.stale_reads_detected);
  c "seq.duplicates" (fun () -> ist.seq_duplicates);
  c "seq.gaps" (fun () -> ist.seq_gaps);
  c "seq.stale_epochs" (fun () -> ist.seq_stale);
  g "integrity.quarantined" (fun () -> Hashtbl.length ist.quarantine);
  Registry.histogram_ref reg "integrity.detect_latency_ns" ist.detect_latency;
  c "scrub.pages" (fun () ->
      match t.scrubber with Some s -> Scrubber.pages_scrubbed s | None -> 0);
  c "scrub.repairs" (fun () ->
      match t.scrubber with Some s -> Scrubber.repairs s | None -> 0);
  c "scrub.sweeps" (fun () ->
      match t.scrubber with Some s -> Scrubber.sweeps s | None -> 0);
  if Rack_controller.replicas t.controller > 0 then begin
    c "replication.lines" (fun () -> Rack_controller.lines_replicated t.controller);
    c "replication.failovers" (fun () -> Rack_controller.failovers t.controller);
    g "replication.divergent" (fun () ->
        Rack_controller.divergent_mirrors t.controller)
  end

(* Debug invariant ([config.check_replicas]): fence the eviction QP —
   firing any in-flight (possibly retransmission-delayed) mirror writes —
   then assert that no live mirror diverges from its primary.  Data staged
   in the CL log but not yet flushed is absent from primary and mirrors
   alike, so it cannot produce a false positive. *)
let check_replicas_now t =
  if Rack_controller.replicas t.controller > 0 then begin
    Qp.wait_idle t.evict_qp;
    let divergent = Rack_controller.divergent_mirrors t.controller in
    if divergent > 0 then
      failwith
        (Printf.sprintf
           "Runtime: replica divergence after eviction: %d mirror(s) differ \
            from their primary"
           divergent)
  end

let app_ns t = Clock.now t.app_clock
let bg_ns t = Clock.now t.bg_clock
let elapsed_ns t = Int.max (app_ns t) (bg_ns t)

let note_degraded t reason =
  if t.degraded_reason = None then t.degraded_reason <- Some reason

(* ------------------------------------------------------------------ *)
(* Integrity: delivery-report accounting and scrub-and-repair (PR 4) *)

(* Quarantined line addresses of copy [tid] within [raddr, raddr+len).
   The table is empty unless a torn delivery was rejected since the last
   repair, so an empty one is answered without a fold. *)
let quarantined_lines t ~tid ~raddr ~len =
  let q = t.integrity.quarantine in
  if Hashtbl.length q = 0 then []
  else
    Hashtbl.fold
      (fun (id, l) () acc ->
        if id = tid && l >= raddr && l < raddr + len then l :: acc else acc)
      q []

(* CL-log delivery landed on [target]: fold its classification into the
   detection counters and quarantine any wire-CRC-rejected (torn) lines
   so the scrubber repairs them from a clean copy instead of the store
   serving stale data indefinitely. *)
let on_delivery_report t ~node:_ ~target (report : Memory_node.report) =
  let ist = t.integrity in
  let tid = Memory_node.id target in
  (match report.Memory_node.verdict with
  | Sequencer.Rx.Ok -> ()
  | Sequencer.Rx.Gap n -> ist.seq_gaps <- ist.seq_gaps + n
  | Sequencer.Rx.Duplicate -> ist.seq_duplicates <- ist.seq_duplicates + 1
  | Sequencer.Rx.Stale_epoch -> ist.seq_stale <- ist.seq_stale + 1);
  (match report.Memory_node.rejected with
  | [] -> ()
  | rejected ->
      ist.torn_events <- ist.torn_events + 1;
      ist.crc_rejected_lines <- ist.crc_rejected_lines + List.length rejected;
      List.iter (fun l -> Hashtbl.replace ist.quarantine (tid, l) ()) rejected;
      match t.tracer with
      | Some tr ->
          Tracer.instant tr "integrity.torn_rejected"
            ~args:[ ("node", tid); ("lines", List.length rejected) ]
      | None -> ());
  (* Lines that were corrupt at rest but have just been overwritten with
     verified data: the corruption healed before the scrubber saw it. *)
  List.iter
    (fun l ->
      Hashtbl.remove ist.declared (tid, l);
      if Hashtbl.mem ist.armed (tid, l) then begin
        Hashtbl.remove ist.armed (tid, l);
        ist.flips_healed <- ist.flips_healed + 1
      end)
    report.Memory_node.healed

(* An injected at-rest bit flip landed on [target]. [fresh] means the
   line verified clean beforehand, i.e. a new detectable corruption was
   armed; re-flipping a bit of an already-corrupt line can also cancel
   the corruption, which must disarm the registry to keep the
   armed = found + healed invariant exact. *)
let on_flip_armed t ~target ~addr ~fresh =
  let ist = t.integrity in
  let key = (Memory_node.id target, addr) in
  if fresh then begin
    ist.flips_armed <- ist.flips_armed + 1;
    Hashtbl.remove ist.declared key;
    Hashtbl.replace ist.armed key (Clock.now t.bg_clock)
  end
  else if
    Hashtbl.mem ist.armed key
    && Memory_node.verify_range target ~addr ~len:Units.cache_line = []
  then begin
    (* Same-bit double flip restored the original bytes. *)
    Hashtbl.remove ist.armed key;
    ist.flips_armed <- ist.flips_armed - 1
  end

(* The bad lines of [copy] in the remote page at [raddr]: [None] when it
   has none, else [Some (copy, tid, at_rest, bad)] with its at-rest
   mismatches (declared lines left out) and its bad lines, those and its
   quarantined ones, ascending. *)
let survey t ~raddr copy =
  let ist = t.integrity in
  let tid = Memory_node.id copy in
  let at_rest =
    match Memory_node.verify_range copy ~addr:raddr ~len:Units.page_size with
    | [] -> []
    | lines -> List.filter (fun l -> not (Hashtbl.mem ist.declared (tid, l))) lines
  in
  match (at_rest, quarantined_lines t ~tid ~raddr ~len:Units.page_size) with
  | [], [] -> None
  | _, [] -> Some (copy, tid, at_rest, at_rest)
  | _, quarantined ->
      Some (copy, tid, at_rest, List.sort_uniq compare (at_rest @ quarantined))

(* Account for the at-rest mismatches of the [dirty] survey entries of
   [vpage] and repair each bad line from one of [copies] whose line is
   clean.  Corruption with no clean source anywhere is declared
   unrepairable: counted once, the page recorded as lost, and the run
   degraded.  A declared line is neither found nor counted again, and
   never serves as a repair source. *)
let repair_page t ~vpage ~copies dirty =
  let ist = t.integrity in
  let now = elapsed_ns t in
  let bad_of src =
    match List.find_opt (fun (c, _, _, _) -> c == src) dirty with
    | Some (_, _, _, bad) -> bad
    | None -> []
  in
  (* Detection accounting: every at-rest mismatch found here is a bit
     flip surfacing; stamp its detection latency if armed. *)
  List.iter
    (fun (_, tid, at_rest, _) ->
      List.iter
        (fun l ->
          ist.flips_found <- ist.flips_found + 1;
          match Hashtbl.find_opt ist.armed (tid, l) with
          | Some t0 ->
              Histogram.add ist.detect_latency (max 0 (now - t0));
              Hashtbl.remove ist.armed (tid, l)
          | None -> ())
        at_rest)
    dirty;
  let repaired = ref 0 and unrepairable = ref 0 in
  List.iter
    (fun (copy, tid, _, bad) ->
      List.iter
        (fun l ->
          (match
             List.find_opt
               (fun src ->
                 src != copy
                 && Memory_node.alive src
                 && (not (List.mem l (bad_of src)))
                 && not (Hashtbl.mem ist.declared (Memory_node.id src, l)))
               copies
           with
          | Some src ->
              (* Copy the clean line over; [write] records a fresh CRC, so
                 the repair is itself verifiable. *)
              let data = Memory_node.peek src ~addr:l ~len:Units.cache_line in
              (try
                 Memory_node.write copy ~addr:l ~data;
                 incr repaired;
                 ist.repaired_lines <- ist.repaired_lines + 1;
                 ist.repair_bytes <- ist.repair_bytes + Units.cache_line;
                 Clock.advance t.bg_clock
                   (Kona_rdma.Cost.memcpy_ns rdma ~bytes:Units.cache_line)
               with Memory_node.Crashed _ | Memory_node.Fenced _ -> ())
          | None ->
              incr unrepairable;
              ist.unrepairable_lines <- ist.unrepairable_lines + 1;
              Hashtbl.replace ist.declared (tid, l) ();
              Hashtbl.replace ist.unrepairable_pages vpage ();
              note_degraded t
                (Printf.sprintf
                   "corrupt line %#x on node %d has no clean copy to repair \
                    from"
                   l tid));
          Hashtbl.remove ist.quarantine (tid, l))
        bad)
    dirty;
  if !unrepairable > 0 then Scrubber.Unrepairable !unrepairable
  else if !repaired > 0 then Scrubber.Repaired !repaired
  else Scrubber.Clean

(* Verify one remote page across every live copy and repair its bad
   lines.  A page no copy has a bad line in is [Clean] after one survey
   of each copy, before any accounting.  Otherwise the eviction QP goes
   idle first: a shipment's WQEs to the primary and to a mirror complete
   at different times, so a line flipped on the copy its delivery
   reached first would be repaired from a copy still holding the line's
   previous bytes, and the late delivery would then land on the source
   only.  The copies are surveyed again, since the deliveries may have
   healed lines, and repaired. *)
let verify_and_repair_page t ~vpage =
  match Resource_manager.translate t.rm ~vaddr:(vpage * Units.page_size) with
  | None -> Scrubber.Clean
  | Some (node, raddr) -> (
      let copies () = Rack_controller.live_copies t.controller ~id:node in
      match List.filter_map (survey t ~raddr) (copies ()) with
      | [] -> Scrubber.Clean
      | _ -> (
          Qp.wait_idle t.evict_qp;
          let copies = copies () in
          match List.filter_map (survey t ~raddr) copies with
          | [] -> Scrubber.Clean
          | dirty -> repair_page t ~vpage ~copies dirty))

(* ------------------------------------------------------------------ *)
(* Partitions, membership and interruptible recovery (PR 9).           *)

let partitioned t ~id ~at =
  match Hashtbl.find_opt t.partition_until id with
  | Some heal -> at < heal
  | None -> false

let start_partition t ~dur_ns ~ids =
  let now = elapsed_ns t in
  (match t.tracer with
  | Some tr ->
      Tracer.instant tr "faults.partition"
        ~args:[ ("dur_ns", dur_ns); ("nodes", List.length ids) ]
  | None -> ());
  List.iter
    (fun id ->
      let heal = now + dur_ns in
      let cur = Option.value (Hashtbl.find_opt t.partition_until id) ~default:0 in
      Hashtbl.replace t.partition_until id (max cur heal))
    ids

(* Replay deferred deliveries whose partition has healed, in defer order
   (List.partition is stable, and the deferred list is appended FIFO). *)
let flush_healed_deferred t ~now =
  match t.deferred with
  | [] -> ()
  | _ ->
      let due, later = List.partition (fun (heal, _) -> heal <= now) t.deferred in
      t.deferred <- later;
      List.iter
        (fun (_, fire) ->
          t.deferred_flushed <- t.deferred_flushed + 1;
          fire ())
        due

(* Restore the replication degree as a resumable task: one 1 MiB chunk
   posted per [Recovery.step].  The source is re-read from the controller
   every step, so a second failover mid-clone switches source instead of
   raising; a dead source scraps the half-cloned mirror (an incomplete
   copy must never become promotable) and completes — the next failover
   re-plans from whichever full mirror survives. *)
let enqueue_re_replication t ~logical =
  let chunk = 1 lsl 20 in
  let state = ref `Init in
  ignore
    (Recovery.enqueue t.recovery
       ~name:(Printf.sprintf "re-replicate:%d" logical)
       (fun ~now:_ ->
         let source () =
           match Rack_controller.node t.controller ~id:logical with
           | primary when Memory_node.alive primary -> Some primary
           | _ -> None
           | exception Invalid_argument _ -> None
         in
         match !state with
         | `Init -> (
             match source () with
             | None -> `Done (* nothing live to clone from; re-planned later *)
             | Some primary ->
                 let used = Memory_node.used primary in
                 let mirror =
                   Memory_node.create
                     ~id:(Rack_controller.mint_backing_id t.controller)
                     ~capacity:(Memory_node.capacity primary)
                 in
                 Memory_node.adopt_reservations mirror ~brk:used;
                 Rack_controller.add_mirror t.controller ~id:logical mirror;
                 let t0 = Clock.now t.bg_clock in
                 if used = 0 then begin
                   Histogram.add t.recovery_latency 0;
                   `Done
                 end
                 else begin
                   state := `Copy (mirror, used, ref 0, t0);
                   `Again
                 end)
         | `Copy (mirror, used, next, t0) -> (
             match source () with
             | None ->
                 Rack_controller.remove_mirror t.controller ~id:logical
                   ~physical:(Memory_node.id mirror);
                 `Done
             | Some primary ->
                 let off = !next * chunk in
                 let len = min chunk (used - off) in
                 let nchunks = (used + chunk - 1) / chunk in
                 let last = !next = nchunks - 1 in
                 incr next;
                 Qp.post t.evict_qp
                   [
                     Qp.wqe ~signaled:last
                       ~deliver:(fun () ->
                         (try
                            Memory_node.write mirror ~addr:off
                              ~data:(Memory_node.peek primary ~addr:off ~len);
                            t.recovery_bytes <- t.recovery_bytes + len
                          with
                         | Memory_node.Crashed _ | Memory_node.Fenced _ -> ());
                         if last then begin
                           Histogram.add t.recovery_latency
                             (Clock.now t.bg_clock - t0);
                           match t.tracer with
                           | Some tr ->
                               Tracer.instant tr
                                 ~args:[ ("node", logical); ("bytes", used) ]
                                 "faults.re_replicated"
                           | None -> ()
                         end)
                       Qp.Write ~len;
                   ];
                 if last then `Done else `Again)))

(* A detector (instant or lease) declared the store with physical id
   [phys] dead: run the failover control exchange with the rack
   controller, fence the displaced store at a fresh rack-global epoch
   (every sender sharing the controller stamps it from its next
   shipment on), and queue re-replication.  One bounded attempt per
   recovery step — an unreachable controller retries next step instead
   of burying the engine in a synchronous retry loop. *)
let run_failover_attempt t ~logical ~phys =
  let emit name args =
    match t.tracer with Some tr -> Tracer.instant tr ~args name | None -> ()
  in
  if Rack_controller.replicas t.controller = 0 then begin
    note_degraded t
      (Printf.sprintf
         "memory node %d declared dead with no replicas configured" logical);
    `Done
  end
  else
    let t0 = Clock.now t.app_clock in
    match
      Rpc.call t.rpc ~request_bytes:64 ~response_bytes:64
        (fun () -> Rack_controller.promote t.controller ~id:logical)
        ()
    with
    | exception (Rpc.Timeout_exhausted _ | Qp.Retry_exhausted _) -> `Retry
    | None ->
        Histogram.add t.failover_latency (Clock.now t.app_clock - t0);
        note_degraded t
          (Printf.sprintf
             "memory node %d declared dead with no live mirror to promote"
             logical);
        `Done
    | Some promoted ->
        Histogram.add t.failover_latency (Clock.now t.app_clock - t0);
        emit "faults.failover"
          [ ("node", logical); ("promoted", Memory_node.id promoted) ];
        (* Fence the displaced store: it may be alive behind a
           partition (false positive), and its epoch comparison is what
           rejects the split-brain writes when the partition heals. *)
        let epoch = Rack_controller.bump_fencing_epoch t.controller in
        (match Rack_controller.find_physical t.controller ~id:phys with
        | Some displaced -> Memory_node.set_fence displaced ~epoch
        | None -> ());
        (* The promoted store owes heartbeats now. *)
        (match t.membership with
        | Some m ->
            Membership.track m ~id:(Memory_node.id promoted) ~now:(elapsed_ns t)
        | None -> ());
        enqueue_re_replication t ~logical;
        `Done

let schedule_failover t ~phys =
  match Rack_controller.logical_backed_by t.controller ~physical:phys with
  | None -> () (* a former backing or mirror: already displaced *)
  | Some logical ->
      let name = Printf.sprintf "failover:%d" logical in
      if not (List.mem name (Recovery.pending t.recovery)) then begin
        let attempts = ref 0 in
        ignore
          (Recovery.enqueue t.recovery ~name (fun ~now:_ ->
               match run_failover_attempt t ~logical ~phys with
               | `Done -> `Done
               | `Retry ->
                   incr attempts;
                   if !attempts >= 3 then begin
                     note_degraded t
                       (Printf.sprintf
                          "failover of memory node %d failed: rack controller \
                           unreachable after %d recovery steps"
                          logical !attempts);
                     `Done
                   end
                   else `Again))
      end

(* The instant detector's crash path and [drain]'s final msync. *)
let pump_recovery t = Recovery.run_to_idle t.recovery ~now:(fun () -> elapsed_ns t)

let create ?(config = default_config) ?nic ?hub ?arbitrate ~controller
    ~read_local () =
  let app_clock = Clock.create () in
  let bg_clock = Clock.create () in
  let tracer = Option.map Hub.tracer hub in
  (match tracer with
  | Some tr ->
      Tracer.set_clock tr (fun () -> (Clock.now app_clock, Clock.now bg_clock))
  | None -> ());
  let registry =
    match hub with Some h -> Hub.registry h | None -> Registry.create ()
  in
  let nic = match nic with Some n -> n | None -> Kona_rdma.Nic.create () in
  (* The injector always exists, so clauses can be armed mid-run with
     [arm_fault]; its hooks draw nothing while their categories are
     unarmed.  Link flaps become NIC outage windows up front, in plan
     order; per-WQE and per-RPC decisions are drawn through the hooks
     below as traffic flows. *)
  let injector = Injector.create ~seed:config.fault_seed ~plan:config.faults in
  List.iter
    (function
      | Fault_spec.Link_flap { at_ns; dur_ns } ->
          Nic.inject_outage nic ~at:at_ns ~duration:dur_ns
      | _ -> ())
    config.faults;
  let inject = Injector.qp_inject injector in
  (* Demand fetches stay signal-every-WQE (they are synchronous); the
     background paths take both the send-queue window and selective
     signaling. *)
  let backoff = config.backoff in
  let fetch_qp =
    Qp.create ~cost:rdma ~nic ?sq_depth:config.sq_depth ~inject
      ?arbitrate ~backoff ~clock:app_clock ()
  in
  let evict_qp =
    Qp.create ~cost:rdma ~nic ?sq_depth:config.sq_depth ~inject
      ?arbitrate ~backoff ~signal_interval:config.signal_interval ~clock:bg_clock ()
  in
  let rpc =
    (* The control path's SENDs ride the same loss/delay hook as the
       data QPs, so wqe-drop plans can kill a control exchange outright
       (surfaced as the underlying transport error, not a timeout). *)
    Kona_rdma.Rpc.create ~cost:rdma ~backoff
      ~fail:(Injector.rpc_timeout injector)
      ~inject ~clock:app_clock ~nic ()
  in
  let rm = Resource_manager.create ~rpc ?tenant:config.tenant ~controller () in
  let fmem = Fmem.create ~policy:config.fmem_policy ~pages:config.fmem_pages () in
  (* Runtimes sharing a controller (a multi-tenant rack) share its
     mirrors: the first mints them, so a failover is whole-node. *)
  if config.replicas > 0 then
    Rack_controller.replicate controller ~degree:config.replicas;
  let log =
    Cl_log.create ~capacity:config.log_capacity ~stream_base:config.stream_base
      ?tracer ~qp:evict_qp ~cost:rdma ~controller ()
  in
  (* The hierarchy is created first without hooks, then hooks close over the
     record; OCaml needs the recursive knot tied by a forward reference. *)
  let caching_ref = ref None in
  let tracker_ref = ref None in
  let hierarchy =
    Hierarchy.create ~config:config.cache_config
      ~on_fill:(fun ~addr ~write:_ ->
        match !caching_ref with Some c -> Caching_handler.on_fill c ~addr | None -> ())
      ~on_writeback:(fun ~addr ->
        match !tracker_ref with Some d -> Dirty_tracker.on_writeback d ~addr | None -> ())
      ()
  in
  let evictor =
    Eviction_handler.create ?tracer ~log ~rm ~read_local
      ~snoop:(Hierarchy.flush_page hierarchy) ()
  in
  let tracker =
    Dirty_tracker.create ~fmem
      ~on_orphan:(fun ~line_addr -> Eviction_handler.write_line_through evictor ~line_addr)
      ()
  in
  let prefetch_qp =
    if config.prefetch then
      Some
        (Qp.create ~cost:rdma ~nic ?sq_depth:config.sq_depth ~inject
           ~backoff ~signal_interval:config.signal_interval ~clock:bg_clock ())
    else None
  in
  (* The check_replicas invariant runs after each eviction batch; it needs
     the full runtime record, which does not exist yet at hook-wiring time.
     [on_evict] is the rack's page-departure observation point (shared-
     segment writers snoop remote readers from it). *)
  let post_evict_ref = ref (fun () -> ()) in
  let on_evict : (vpage:int -> dirty:bool -> unit) ref =
    ref (fun ~vpage:_ ~dirty:_ -> ())
  in
  let caching =
    Caching_handler.create ~cost ?mce_threshold_ns:config.mce_threshold_ns
      ?prefetch_qp ?tracer ~fmem ~rm ~fetch_qp
      ~on_victim:(fun ~vpage ~dirty ->
        let shipped = Eviction_handler.evict evictor ~vpage ~dirty in
        !on_evict ~vpage ~dirty:shipped;
        !post_evict_ref ())
      ()
  in
  caching_ref := Some caching;
  tracker_ref := Some tracker;
  let t =
    {
      config;
      app_clock;
      bg_clock;
      controller;
      hierarchy;
      fmem;
      rm;
      rpc;
      log;
      injector;
      caching;
      tracker;
      evictor;
      nic;
      fetch_qp;
      evict_qp;
      prefetch_qp;
      registry;
      tracer;
      failover_latency = Histogram.create ();
      recovery_latency = Histogram.create ();
      integrity = create_integrity_state ();
      scrubber = None;
      membership = None;
      recovery = Recovery.create ();
      partition_until = Hashtbl.create 4;
      deferred = [];
      deferred_deliveries = 0;
      deferred_flushed = 0;
      recovery_bytes = 0;
      heap_pages_restored = 0;
      heap_pages_lost = 0;
      degraded_reason = None;
      accesses = 0;
      on_evict;
      invalidations_received = 0;
    }
  in
  if config.check_replicas then post_evict_ref := (fun () -> check_replicas_now t);
  (* Integrity wiring: every delivery's classification feeds detection
     accounting; corruption faults are decided per shipment. *)
  Cl_log.set_on_report log (fun ~node ~target report ->
      on_delivery_report t ~node ~target report);
  Cl_log.set_on_flip log (fun ~target ~addr ~fresh -> on_flip_armed t ~target ~addr ~fresh);
  (* Wired even when no corruption clause is in the create-time plan:
     [delivery_inject] draws nothing while unarmed, and clauses can be
     armed mid-run via [arm_fault]. *)
  Cl_log.set_inject log (fun ~targets -> Injector.delivery_inject injector ~targets);
  (* On-fetch verification: every synchronous demand fetch re-checks the
     remote page's checksums (and repairs on the spot), after the
     stale-read fault decides whether this fetch must burn a retry. *)
  if config.verify_checksums then
    Caching_handler.set_on_fetch_verify caching (fun ~vpage ->
        if Injector.stale_reads_armed injector && Injector.read_inject injector ()
        then begin
          t.integrity.stale_reads_detected <-
            t.integrity.stale_reads_detected + 1;
          (match tracer with
          | Some tr -> Tracer.instant tr "integrity.stale_read" ~args:[ ("vpage", vpage) ]
          | None -> ());
          (* The stale image fails verification; re-read the page. *)
          Qp.post fetch_qp [ Qp.wqe ~signaled:true Qp.Read ~len:Units.page_size ];
          Qp.wait_idle fetch_qp
        end;
        (* The CRC pass over the fetched page is demand-path CPU work. *)
        Clock.advance app_clock
          (Kona_rdma.Cost.memcpy_ns rdma ~bytes:Units.page_size);
        ignore (verify_and_repair_page t ~vpage : Scrubber.outcome));
  (* Background scrubber: budgeted sweeps over the backed pages, driven
     off the virtual clock from [poll_faults]. *)
  (match config.scrub_interval_ns with
  | Some interval ->
      let scan () =
        let acc = ref [] in
        Resource_manager.iter_backed_pages t.rm (fun ~vpage ~node:_ ~remote_addr:_ ->
            acc := vpage :: !acc);
        Array.of_list (List.rev !acc)
      in
      let check ~page =
        (* Per-page verify cost: one CRC pass over the page, background. *)
        Clock.advance bg_clock
          (Kona_rdma.Cost.memcpy_ns rdma ~bytes:Units.page_size);
        verify_and_repair_page t ~vpage:page
      in
      t.scrubber <-
        Some (Scrubber.create ~interval_ns:interval ~scan ~check)
  | None -> ());
  (* Partition gate: a delivery completing inside a partition window of
     its physical target is captured and deferred until heal time. *)
  Cl_log.set_gate log (fun ~node ~fire ->
      if partitioned t ~id:node ~at:(elapsed_ns t) then begin
        let heal = Hashtbl.find t.partition_until node in
        t.deferred_deliveries <- t.deferred_deliveries + 1;
        t.deferred <- t.deferred @ [ (heal, fire) ];
        true
      end
      else false);
  (* Lease-based membership: failover is triggered by lease expiry, not
     by the crash hook — a partitioned node and a crashed one look the
     same here, which is what makes false positives possible. *)
  (match config.heartbeat_ns with
  | None -> ()
  | Some heartbeat_ns ->
      let reachable ~id ~at =
        (match Rack_controller.find_physical controller ~id with
        | Some n -> Memory_node.alive n
        | None -> false)
        && not (partitioned t ~id ~at)
      in
      let m =
        Membership.create ~heartbeat_ns ~lease_ns:config.lease_ns ~reachable
          ~on_dead:(fun ~id ~at:_ -> schedule_failover t ~phys:id)
          ~charge:(fun ~ns -> Clock.advance bg_clock ns)
          ()
      in
      (* Initial backings carry their logical ids as physical ids. *)
      List.iter
        (fun id -> Membership.track m ~id ~now:0)
        (Rack_controller.logical_ids controller);
      t.membership <- Some m);
  register_metrics t registry;
  t

(* A node crash fired (a due fault-plan clause or a scenario op), counted
   once either way in the injector's [node_crashes].  [id] resolves one
   way for both failure detectors: a logical id whose current backing is
   alive crashes that backing; any other id names a physical store — a
   displaced former backing or a mirror.  Failover then runs on the
   recovery queue in both modes.  With membership, the lease detector
   schedules it once the lease expires: it cannot tell a crash from a
   partition.  Without, the crash is detected instantly: the failover is
   scheduled here and the queue pumped to idle.  Mirrors hold no leases,
   so a mirror crash queues re-replication directly. *)
let crash_node t ~id =
  Injector.count_crash t.injector;
  let emit name args =
    match t.tracer with Some tr -> Tracer.instant tr ~args name | None -> ()
  in
  let store =
    match Rack_controller.node t.controller ~id with
    | backing when Memory_node.alive backing -> Some backing
    | _ | (exception Invalid_argument _) ->
        Rack_controller.find_physical t.controller ~id
  in
  (match store with
  | Some store ->
      Memory_node.crash store;
      emit "faults.node_crash" [ ("node", id) ];
      if t.membership = None then
        schedule_failover t ~phys:(Memory_node.id store)
  | None -> (
      match Rack_controller.crash_mirror t.controller ~physical:id with
      | Some primary_id ->
          emit "faults.mirror_crash" [ ("node", id); ("primary", primary_id) ];
          enqueue_re_replication t ~logical:primary_id
      | None ->
          note_degraded t
            (Printf.sprintf "fault plan crashed unknown memory node %d" id)));
  if t.membership = None then pump_recovery t

(* Polled as the clocks advance (every access sink and drain): fire node
   crashes and partitions whose scheduled virtual time has been reached,
   replay deliveries whose partition healed, evaluate heartbeat leases,
   and advance the in-flight recovery task one bounded step.  O(1) when
   nothing is pending. *)
let poll_faults t =
  let now = elapsed_ns t in
  let inj = t.injector in
  if Injector.crashes_pending inj > 0 then
    List.iter (fun id -> crash_node t ~id) (Injector.due_node_crashes inj ~now);
  if Injector.partitions_pending inj > 0 then
    List.iter
      (fun (dur_ns, ids) -> start_partition t ~dur_ns ~ids)
      (Injector.due_partitions inj ~now);
  flush_healed_deferred t ~now;
  (match t.membership with Some m -> Membership.tick m ~now | None -> ());
  (match Recovery.step t.recovery ~now with
  | `Idle | `Stepped _ | `Finished _ -> ());
  (* The scrubber shares the poll: cheap when no sweep is due. *)
  match t.scrubber with
  | Some s -> Scrubber.tick s ~now:(elapsed_ns t)
  | None -> ()

(* The charge per line access, indexed by the level
   [Hierarchy.access_line] returns minus one: a memory access (level 4)
   pays the LLC's, and the fill path charges FMem or the fetch. *)
let level_ns =
  Array.map (fun level -> int_of_float (Cost_model.hit_ns cost ~level))
    [| 1; 2; 3; 3 |]

let charge_level t level = Clock.advance t.app_clock level_ns.(level - 1)

let sink t event =
  poll_faults t;
  t.accesses <- t.accesses + 1;
  let write = Access.is_write event in
  for line = Access.first_line event to Access.last_line event do
    charge_level t (Hierarchy.access_line t.hierarchy ~addr:(line * Units.cache_line) ~write)
  done

let drain t =
  poll_faults t;
  (* Pages needing writeback: FMem residents plus any page holding dirty
     CPU lines (possible after an FMem eviction raced a cached write). *)
  let pages = Hashtbl.create 256 in
  Fmem.iter_resident t.fmem (fun ~vpage ~dirty:_ -> Hashtbl.replace pages vpage ());
  let note_dirty ~block_addr ~dirty =
    if dirty then Hashtbl.replace pages (Units.page_of_addr block_addr) ()
  in
  Cache.iter_resident (Hierarchy.l1 t.hierarchy) note_dirty;
  Cache.iter_resident (Hierarchy.l2 t.hierarchy) note_dirty;
  Cache.iter_resident (Hierarchy.llc t.hierarchy) note_dirty;
  Hashtbl.iter
    (fun vpage () ->
      let dirty =
        match Fmem.evict t.fmem ~vpage with
        | Some victim -> victim.Fmem.dirty_lines
        | None -> Bitmap.create Units.lines_per_page
      in
      let shipped = Eviction_handler.evict t.evictor ~vpage ~dirty in
      !(t.on_evict) ~vpage ~dirty:shipped)
    pages;
  Cl_log.flush t.log;
  (* Final membership evaluation, then drive interruptible recovery to
     completion: queued failovers fence their displaced stores before
     the deferred (partition-captured) deliveries below land on them. *)
  (match t.membership with Some m -> Membership.tick m ~now:(elapsed_ns t) | None -> ());
  pump_recovery t;
  Qp.wait_idle t.evict_qp;
  (* Every partition heals by msync: land all deferred deliveries, in
     defer order — fenced targets reject theirs as stale (the split-brain
     writes). *)
  flush_healed_deferred t ~now:max_int;
  (* Close the integrity loop before any end-of-run oracle looks at the
     rack: a forced full sweep verifies (and repairs) every backed page,
     including quarantined lines whose torn delivery was rejected. *)
  (match t.scrubber with Some s -> Scrubber.force_sweep s | None -> ());
  if t.config.check_replicas then check_replicas_now t

(* Compute-node crash recovery (§4.5, failure mode 1): the local cache and
   heap are gone but remote memory survives.  Flush the CL-log tail first —
   unacked dirty lines must land remotely before pages are read back — then
   rebuild every backed page over batched RDMA reads, handing each to
   [restore] (e.g. {!Kona_workloads.Heap.restore_page}).  Pages whose node
   is crashed and un-failed-over are lost and counted.  Returns
   [(restored, lost)] page counts for this call. *)
let recover_heap t ~restore =
  let t0 = elapsed_ns t in
  let restored0 = t.heap_pages_restored and lost0 = t.heap_pages_lost in
  Cl_log.flush t.log;
  let page = Units.page_size in
  let pending = ref [] in
  let flush_batch () =
    if !pending <> [] then begin
      Qp.post t.fetch_qp (List.rev !pending);
      pending := []
    end
  in
  Resource_manager.iter_backed_pages t.rm (fun ~vpage ~node ~remote_addr ->
      match Rack_controller.node t.controller ~id:node with
      | remote when Memory_node.alive remote ->
          let wqe =
            Qp.wqe ~signaled:true
              ~deliver:(fun () ->
                match Memory_node.peek remote ~addr:remote_addr ~len:page with
                | data ->
                    restore ~addr:(vpage * page) ~data;
                    t.heap_pages_restored <- t.heap_pages_restored + 1;
                    t.recovery_bytes <- t.recovery_bytes + page
                | exception Memory_node.Crashed _ ->
                    t.heap_pages_lost <- t.heap_pages_lost + 1)
              Qp.Read ~len:page
          in
          pending := wqe :: !pending;
          if List.length !pending >= 64 then flush_batch ()
      | _ -> t.heap_pages_lost <- t.heap_pages_lost + 1
      | exception Invalid_argument _ ->
          t.heap_pages_lost <- t.heap_pages_lost + 1);
  flush_batch ();
  Qp.wait_idle t.fetch_qp;
  let dur = elapsed_ns t - t0 in
  Histogram.add t.recovery_latency dur;
  let restored = t.heap_pages_restored - restored0
  and lost = t.heap_pages_lost - lost0 in
  (match t.tracer with
  | Some tr ->
      Tracer.span tr ~dur_ns:dur
        ~args:[ ("restored", restored); ("lost", lost) ]
        "runtime.recover_heap"
  | None -> ());
  (restored, lost)

let degraded t =
  match t.degraded_reason with
  | Some _ as r -> r
  | None ->
      (* With replicas, lost primary deliveries are covered by mirrors. *)
      let lost = Cl_log.lost_deliveries t.log in
      if Rack_controller.replicas t.controller = 0 && lost > 0 then
        Some
          (Printf.sprintf
             "%d cache-line log write(s) (%d lines) lost to crashed memory \
              nodes"
             lost (Cl_log.lost_lines t.log))
      else None

(* ------------------------------------------------------------------ *)
(* Report views over the registry: fixed lists of names, each read from
   one registered metric.  Names and order are a contract — perf's
   sim_digest hashes [stats @ integrity_counters] and [konactl rack
   --repro-check] compares [integrity_counters] — so [stats] keeps its
   own spellings ([log.lines] is [cllog.lines]).  A name the registry
   does not hold raises: a misspelt entry never reads as 0. *)

let count t metric =
  match Registry.read t.registry metric with
  | Some (Snapshot.Counter v | Snapshot.Gauge v) -> v
  (* [replication.*] is registered only with replicas *)
  | None
    when Rack_controller.replicas t.controller = 0
         && String.starts_with ~prefix:"replication." metric ->
      0
  | Some (Snapshot.Hist _) | None ->
      invalid_arg ("Runtime: no count registered as " ^ metric)

let histogram t metric =
  match Registry.read t.registry metric with
  | Some (Snapshot.Hist h) -> h
  | _ -> invalid_arg ("Runtime: no histogram registered as " ^ metric)

let fetch_percentile t p =
  let h = histogram t "fetch.latency_ns" in
  if Histogram.count h = 0 then 0 else Histogram.percentile h p

let stats_view =
  let alias name metric = (name, fun t -> count t metric) in
  let same metric = alias metric metric in
  [
    alias "l1.accesses" "cache.accesses{level=l1}";
    alias "l1.misses" "cache.misses{level=l1}";
    alias "l2.accesses" "cache.accesses{level=l2}";
    alias "l2.misses" "cache.misses{level=l2}";
    alias "llc.accesses" "cache.accesses{level=llc}";
    alias "llc.misses" "cache.misses{level=llc}";
    alias "accesses" "runtime.accesses";
    same "fmem.hits";
    same "fmem.misses";
    same "fetch.pages";
    same "fetch.bytes";
    alias "mce.raised" "fetch.mce_raised";
    same "prefetch.issued";
    same "prefetch.useful";
    ("fetch.p50_ns", fun t -> fetch_percentile t 50.);
    ("fetch.p99_ns", fun t -> fetch_percentile t 99.);
    same "tracker.lines";
    same "tracker.orphans";
    same "evict.pages";
    same "evict.clean_pages";
    same "evict.lines";
    alias "evict.snooped" "evict.snooped_lines";
    alias "log.lines" "cllog.lines";
    alias "log.flushes" "cllog.flushes";
    alias "log.doorbell_batches" "cllog.doorbell_batches";
    alias "evict.window_stalls" "qp.window_stalls{qp=evict}";
    alias "rdma.fetch_wire_bytes" "qp.wire_bytes{qp=fetch}";
    alias "slabs" "rm.slabs";
    alias "controller.round_trips" "rm.controller_round_trips";
    same "faults.injected";
    same "faults.node_crashes";
    alias "failover.count" "replication.failovers";
    alias "log.lost_writes" "cllog.lost_writes";
    alias "faults.partitions" "partition.started";
    same "membership.false_positives";
    same "fencing.rejects";
  ]

let stats t = List.map (fun (name, get) -> (name, get t)) stats_view

let integrity_names =
  [
    "integrity.flips_armed";
    "integrity.flips_found";
    "integrity.healed_overwrite";
    "integrity.torn_events";
    "integrity.crc_rejects";
    "seq.duplicates";
    "seq.gaps";
    "seq.stale_epochs";
    "integrity.stale_reads";
    "integrity.repaired";
    "integrity.repair_bytes";
    "integrity.unrepairable";
    "integrity.quarantined";
    "scrub.pages";
    "scrub.repairs";
    "scrub.sweeps";
    "partition.started";
    "partition.deferred";
    "partition.flushed";
    "membership.heartbeats";
    "membership.suspicions";
    "membership.suspicions_cleared";
    "membership.declared_dead";
    "membership.false_positives";
    "fencing.epoch";
    "fencing.rejects";
    "fencing.post_fence_writes";
    "recovery.steps";
    "recovery.tasks_completed";
    "recovery.tasks_cancelled";
  ]

let integrity_counters t =
  List.map (fun metric -> (metric, count t metric)) integrity_names

let unrepairable_pages t =
  Hashtbl.fold (fun vpage () acc -> vpage :: acc) t.integrity.unrepairable_pages
    []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Rack hooks: tenant-level observation and cross-tenant coherence.    *)

let set_on_evict t f = t.on_evict := f
let set_on_fetch t f = Caching_handler.set_on_fetch t.caching f

(* A remote writer's eviction recalled a page this tenant had fetched
   (shared read-mostly segment): drop the local copy so the next access
   re-fetches fresh bytes.  Routed through the normal eviction path — the
   snoop flushes any CPU-cached lines of the page — then charged one
   FMem invalidation access. *)
let invalidate_page t ~vpage =
  t.invalidations_received <- t.invalidations_received + 1;
  let dirty =
    match Fmem.evict t.fmem ~vpage with
    | Some victim -> victim.Fmem.dirty_lines
    | None -> Bitmap.create Units.lines_per_page
  in
  let (_ : bool) = Eviction_handler.evict t.evictor ~vpage ~dirty in
  Clock.advance t.bg_clock (int_of_float cost.Cost_model.fmem_ns)

(* Multi-writer coherence: the rack installs the home-side judgment of
   which delivered writeback lines are stale (ownership revoked, newer
   value already home) — see {!Cl_log.set_stale_filter}. *)
let set_writeback_filter t f = Cl_log.set_stale_filter t.log f

(* Page migration support.  Staged CL-log entries resolve (node, raddr)
   at append time, so the migrator flushes before any remap. *)
let flush_log t = Cl_log.flush t.log

(* Post one background control message (e.g. a shared-segment invalidation)
   to [node]: rides the eviction QP, so it pays wire time, contends at the
   node's ingress scheduler, and [deliver] fires when the background clock
   reaches its completion. *)
let post_bg_message t ~node ~len ~deliver =
  Qp.post t.evict_qp [ Qp.wqe ~signaled:true ~deliver ~node Qp.Write ~len ]

let injector t = t.injector

(* Scenario-engine adapters: on-demand scrub sweep and mid-run fault
   arming. *)
let force_scrub t =
  match t.scrubber with Some s -> Scrubber.force_sweep s | None -> ()

(* A flap or partition armed mid-run starts now on this runtime's clock,
   whatever its [at_ns] says: a flap as an outage of this runtime's NIC
   port. *)
let arm_fault t clause =
  let at_ns = elapsed_ns t in
  Injector.arm t.injector
    (match clause with
    | Fault_spec.Link_flap { dur_ns; _ } ->
        Nic.inject_outage t.nic ~at:at_ns ~duration:dur_ns;
        clause
    | Fault_spec.Partition p -> Fault_spec.Partition { p with at_ns }
    | c -> c)

let controller t = t.controller

(* Membership / partition / recovery surface (PR 9). *)
let membership t = t.membership
let partition_active t ~id = partitioned t ~id ~at:(elapsed_ns t)
let deferred_pending t = List.length t.deferred
let recovery_pending t = Recovery.pending t.recovery
let step_recovery t = Recovery.step t.recovery ~now:(elapsed_ns t)

let track_node t ~id =
  match t.membership with
  | Some m -> Membership.track m ~id ~now:(elapsed_ns t)
  | None -> ()

let registry t = t.registry
let resource_manager t = t.rm
