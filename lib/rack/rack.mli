(** Multi-tenant rack simulation: N tenant runtimes share the memory
    nodes of one rack under a deterministic virtual clock.

    Each tenant is a full {!Kona.Runtime} driving one Table 2 workload.
    The rack adds the three things a single-tenant run cannot exhibit:

    - {e contended ingress bandwidth}: every message bound for a memory
      node — CL-log shipments, demand fetches, replication writes,
      invalidation recalls — passes the node's {!Wfq} scheduler, and the
      queueing it imposes lands in the sending tenant's completion
      latencies (weighted by [bw_share]);
    - {e admission control}: each tenant's slab allocations are charged
      against its [mem_quota] at the shared rack controller;
      {!Kona.Rack_controller.Quota_exceeded} names the offender;
    - {e cross-tenant shared segments}: tenant 0 publishes a read-mostly
      heap segment that the others map ({!Kona.Resource_manager.map_foreign});
      a rack-level {!Kona_coherence.Directory} tracks per-tenant sharers
      so the writer's evictions recall remote readers, and the recall
      traffic itself contends at the nodes.

    Execution is record-then-replay: each workload is first recorded
    against its private heap, then the traces are interleaved by always
    stepping the tenant whose virtual clock is furthest behind — a
    deterministic schedule, so the same seeds produce bit-identical
    per-tenant telemetry ({!tenant_result.t_fingerprint}). *)

type tenant_cfg = {
  name : string;  (** unique; quota accounting key *)
  workload : string;  (** a {!Kona_workloads.Workloads.find} slug *)
  bw_share : int;  (** WFQ weight at every node's ingress (>= 1) *)
  mem_quota : int option;  (** slab-allocation cap, bytes; [None] = unmetered *)
  seed : int;  (** workload RNG seed *)
}

type config = {
  scale : Kona_workloads.Workloads.scale;
  nodes : int;  (** memory nodes in the rack *)
  node_capacity : int;  (** bytes per node *)
  node_gbps : float;  (** per-node ingress link rate (WFQ wire time) *)
  replicas : int;
      (** eviction replication degree, shared across tenants: all
          tenants' CL-log shipments target the same mirrors, so a
          node failover is whole — it preserves every tenant's data *)
  faults : Kona_faults.Fault_spec.t;
      (** a scenario spec's timed [node-crash@T], [link-flap@T] and
          [partition@T] clauses.  Each tenant's runtime takes the clauses
          that reach it, by the rule {!inject} follows: tenant 0 takes
          the whole plan, every other tenant its partitions and link
          flaps *)
  fault_seed : int;
  shared_pages : int;
      (** pages in tenant 0's published segment; 0 disables sharing
          (a spec's [seg=]) *)
  shared_ops : int;
      (** synthetic shared-segment operations woven into each tenant's
          replay (tenant 0 writes, the rest read; a spec's [segops=]) *)
  shared_writers : int;
      (** tenants allowed to write the shared segment: woven op [k]'s
          writer is tenant [k mod shared_writers].  1 (default) keeps the
          historical single-publisher read-mostly path byte-identical;
          > 1 routes every woven shared op through the per-line MSI home
          directory ({!Kona_coherence.Directory.acquire}) with writer
          handoff, RFO invalidation and recall traffic priced through the
          contended links *)
  quantum : int;  (** accesses per scheduling slice *)
  policy : string;
      (** placement policy slug ({!Kona_placement.Placement_policy.find}):
          "first-fit" reproduces the pre-placement allocator exactly and
          never migrates.  The migrator's parameters are fixed: heat
          decays and the migrator runs once per 1 ms epoch, moving at
          most 32 pages per epoch, and its copies contend at every
          node's WFQ with weight 1, like any other sender.  A page
          counts hot at {!Kona_placement.Placement_policy.hot_threshold} *)
  fast_nodes : int;  (** nodes [0, fast_nodes) form the low-latency tier *)
  slow_extra_ns : int;
      (** fixed fabric penalty added to every admit at a slow-tier node;
          0 (the default) disables tiering *)
  ops : Rack_ops.t;
      (** scheduled add/drain/rebalance operations (a spec's timed
          [add@T], [drain@T] and [rebalance@T] clauses); a drain must
          name a node that exists by its firing time *)
  runtime : Kona.Runtime.config;
      (** per-tenant base; the rack overrides [tenant], [stream_base],
          [replicas], [faults] and [fault_seed] per tenant.
          [heartbeat_ns] is honoured on tenant 0 only: one membership
          authority leases the rack's nodes and triggers failover, and
          every tenant's sender stamps the fencing epoch it bumps at
          the shared controller *)
}

val default_config : config
(** 2 nodes x 128 MiB at 1 Gbit/s ingress (low, so smoke runs actually
    saturate), smoke scale, no replication/faults, a 64-page shared
    segment with 256 woven ops, 256-access slices; placement "first-fit"
    with no latency tiering and no scheduled ops — byte-compatible with
    the pre-placement rack. *)

type tenant_result = {
  t_cfg : tenant_cfg;
  t_accesses : int;  (** replayed application accesses (woven ops included) *)
  t_app_ns : int;
  t_elapsed_ns : int;
  t_admitted_bytes : int;  (** payload admitted across all node schedulers *)
  t_contended_bytes : int;
  t_delay_ns : int;  (** total WFQ queueing imposed on this tenant *)
  t_achieved_gbps : float;
      (** bytes-weighted mean of per-node {!Wfq.achieved_gbps}; 0.0 if
          this tenant never contended *)
  t_invalidations : int;  (** shared-segment recalls received *)
  t_mismatches : int;  (** divergence-oracle failures (must be 0) *)
  t_lost_pages : int;  (** pages unreachable on crashed nodes *)
  t_degraded : string option;
  t_fingerprint : string;
      (** canonical JSON of this tenant's [tenant.<i>.*] snapshot: equal
          across same-seed runs (the determinism contract) *)
  t_snapshot : Kona_telemetry.Snapshot.t;
}

type result = {
  r_tenants : tenant_result array;
  r_elapsed_ns : int;  (** max over tenants *)
  r_total_admits : int;
  r_saturated_admits : int;
  r_snoops : int;  (** rack-directory recalls *)
  r_invalidations_sent : int;
  r_shared_writes : int;
  r_shared_reads : int;
  r_handoffs : int;
      (** writer handoffs: RFOs that recalled another tenant's dirty copy
          (multi-writer MSI directory) *)
  r_owner_changes : int;  (** exclusive grants handed out by the MSI home *)
  r_coh_invalidations : int;
      (** copies killed by RFOs and handoffs at the MSI home *)
  r_node_crashes : int;
  r_migrations : int;  (** pages moved (migrator epochs + rebalance ops) *)
  r_bytes_moved : int;  (** migration + drain bytes across the fabric *)
  r_failed_moves : int;  (** planned moves declined (full/dead/unclean) *)
  r_migrator_delay_ns : int;
      (** WFQ queueing absorbed by migration traffic — nonzero means the
          migrator contended with tenants *)
  r_fetches : int;  (** demand fetches observed rack-wide *)
  r_fetches_fast : int;  (** of which served by the fast tier *)
  r_remote_hit_pml : int;
      (** permille of demand fetches served by the slow tier (lower is
          better; what the heat policy pushes down) *)
  r_hot_hit_pml : int;
      (** permille of hot-page fetches served by the fast tier *)
  r_drained_pages : int;  (** pages re-homed by drain ops *)
  r_drain_failures : int;
      (** drain victims with no readable copy or no destination — the
          degraded-drain signal (konactl exit 4) *)
  r_ops_applied : int;
  r_snapshot : Kona_telemetry.Snapshot.t;
      (** the whole hub: every [tenant.<i>.*] namespace plus the
          [rack.*] fairness/contention and [placement.*] counters *)
}

val run : config -> tenant_cfg list -> result
(** Runs every tenant to completion (record, replay interleaved, drain)
    and checks each tenant's divergence oracle: after the final drain,
    remote memory must equal the tenant's heap on every backed private
    page, and the shared segment must equal the publisher's view.

    Raises [Invalid_argument] on an empty or misconfigured tenant list,
    or when a scheduled drain names a node that neither the initial
    rack nor an earlier add has created.  Lets
    {!Kona.Rack_controller.Quota_exceeded} propagate when a tenant
    overruns its cap.

    [run] is exactly [start] + [step] to exhaustion + [finish]. *)

(** {2 Stepwise engine}

    The same simulation as {!run}, paused between scheduling slices so a
    caller can interleave rack operations, fault arming and invariant
    checks with replay.  Outside the benchmarks the only caller is
    [Kona_scenario.Episode], which runs one scenario spec ([konactl rack
    SPEC] runs it there).  All adapters are deterministic:
    the same [config], tenant list and op sequence reproduce the same
    telemetry bit for bit. *)

type engine
(** The rack's whole state as one record: fabric, runtimes, shared
    segment, migrator and counters.  Every operation below is a plain
    function over it. *)

val start : config -> tenant_cfg list -> engine
(** Build the fabric, record every workload, and pause before the first
    slice.  Same validation and exceptions as {!run}. *)

val step : engine -> int
(** Advance one scheduling slice (up to [quantum] accesses on the tenant
    whose clock is furthest behind, then due scheduled ops and a migrator
    tick).  Returns accesses consumed; 0 means the replay is exhausted. *)

val finish : engine -> result
(** Drain every runtime, fire remaining scheduled ops, run the
    divergence oracles and freeze the result.  Idempotent. *)

(** {3 Op adapters} *)

val apply_op : engine -> Rack_ops.op -> unit
(** Apply an add/drain/rebalance now.  An added node gets its WFQ
    scheduler and [rack.node.*] series at registration.  Only a drain of
    an unknown node id is refused, quietly, so generated op sequences
    stay total.

    Drain, rebalance and the migrator move a page one way: read a copy
    whose lines pass their at-rest CRCs (the home, or a live replica of
    it), place it on the destination with that node's mirrors, and
    retarget every tenant mapping still homed at the old copy — the
    owner's, and for a shared-segment page its readers' foreign
    mappings.  Migration and rebalance leave the shared segment alone;
    only a drain re-homes it. *)

val crash_node : engine -> id:int -> unit
(** Fail-stop node [id] now via tenant 0's runtime — the same failover
    path a scheduled [node-crash] fault clause takes, fired at once
    rather than at the next poll.  Unknown ids are refused. *)

val inject : engine -> Kona_faults.Fault_spec.clause -> unit
(** Arm [clause] now on every tenant it reaches, a flap or partition
    starting at each tenant's own clock ({!Kona.Runtime.arm_fault}).
    One rule decides who a clause reaches, here and for {!config.faults}:
    a [Partition] or [Link_flap] cuts the whole rack and reaches every
    tenant; any other clause reaches tenant 0, which runs the rack's
    only failover and is the corruption target.  A partition's nodes
    stay healthy: deliveries to them defer, stamps intact, until heal. *)

val step_recovery : engine -> unit
(** Advance the rack drain queue and every tenant's recovery queue one
    bounded step each — what {!step} does after each slice, exposed for
    drivers that need recovery to progress while replay is paused. *)

val recovery_pending : engine -> string list
(** Names of unfinished resumable recovery tasks, rack drain tasks
    first, then per-tenant failover/re-replication tasks. *)

val recovery_idle : engine -> bool
(** No resumable recovery work outstanding anywhere in the rack — the
    recovery-convergence invariant's engine-side predicate. *)

val force_scrub : engine -> unit
(** Run one full scrub sweep on every runtime configured with one. *)

val force_migration : engine -> unit
(** Run one migration epoch immediately ({!Kona_placement.Migrator.force}). *)

val publish : engine -> pages:int -> unit
(** Publish the shared segment mid-run (tenant 0 backs it, others map
    foreign).  No-op if already published or [pages <= 0]. *)

val shared_round : engine -> unit
(** One synthetic shared-segment round: tenant 0 writes the next op id,
    every other tenant reads it.  No-op before {!publish}. *)

val shared_line_write : engine -> tenant:int -> line:int -> payload:char -> unit
(** One coherent write of shared-segment cache line [line] (segment-
    relative index) by [tenant]: an RFO at the MSI home directory — the
    previous owner's dirty copy is recalled, every other sharer is
    invalidated, and each recall is a background control message priced
    through the line's home-node WFQ link.  The payload byte fills the
    line in the last-writer-wins image.  No-op before {!publish}, or when
    [tenant]/[line] is out of range. *)

val shared_line_read : engine -> tenant:int -> line:int -> unit
(** Coherent read of [line] by [tenant]: a Shared grant; reading another
    tenant's Modified line recalls its dirty copy (downgrade), priced
    like a write recall.  No-op outside the published segment. *)

val multi_writer_round : engine -> unit
(** One multi-writer shared round: the next op id's writer (rotating over
    the first [shared_writers] tenants) RFO-writes a line, every other
    tenant reads it back — by construction an ownership ping-pong.
    No-op before {!publish}. *)

val enable_multi_writer : engine -> unit
(** Turn on multi-writer coherence for the shared segment regardless of
    {!config.shared_writers}: installs the home-side stale-writeback
    filter that resolves cross-tenant writeback races (an eviction
    staged before the directory revoked its holder's grant must not
    land over a newer value).  Idempotent; implied by
    [shared_writers > 1].  {!Kona_shmem.Shm_rpc.create} calls it — ring
    doorbell lines always have two writers. *)

val coherence_audit : engine -> string list
(** The single-owner-per-line invariant, engine side: MSI home-table
    consistency ({!Kona_coherence.Directory.audit}) plus owner-id range
    checks over the published segment's lines.  Empty = coherent. *)

val shared_divergence : engine -> int
(** readers-observe-last-write, engine side: shared pages whose remote
    bytes differ from the last-writer-wins image under the virtual-clock
    total order.  Excludes pages that are unrepairable (armed bit-flips)
    or homed on a dead node — those belong to the integrity and fault
    oracles.  Meaningful after {!finish} (drains flush the CL logs). *)

val shared_owner : engine -> line:int -> int option
(** Current exclusive owner of a shared-segment line, if any. *)

val shared_handoffs : engine -> int
val shared_invalidations : engine -> int
(** Live MSI-home counters (also exported as [coherence.handoffs] /
    [coherence.owner_changes] / [coherence.invalidations] and the
    [coherence.recall_ns] histogram in the telemetry snapshot). *)

val flush_logs : engine -> unit
(** Flush every tenant's CL log. *)

val set_tenant_quota : engine -> tenant:int -> bytes:int -> unit
(** Set tenant [tenant]'s memory quota at the rack controller. *)

val page_view :
  heats:Kona_placement.Heat.t array ->
  rms:Kona.Resource_manager.t array ->
  shared:(int -> bool) ->
  now:int ->
  Kona_placement.Placement_policy.view
(** The migrator's page view of tenants whose heat counters are
    [heats.(i)] and whose address spaces are [rms.(i)]: every backed page
    outside the [shared] segment, with its heat settled to [now].
    Settles every counter of such a page and no other, which is what a
    scan of the backed pages would; it reads the counters, not the
    pages, and scans the pages only when [all] is forced.  Requires
    that heat is tracked only for backed pages (the rack's fetch and
    eviction feed guarantees it); raises [Invalid_argument] on nonzero
    heat for an unbacked page. *)

(** {3 Invariant accessors} *)

val tenant_count : engine -> int
val tenant_cfgs : engine -> tenant_cfg array
val runtime : engine -> tenant:int -> Kona.Runtime.t
val controller : engine -> Kona.Rack_controller.t
val node_count : engine -> int
val fast_node_count : engine -> int

val tenant_used : engine -> tenant:int -> int
(** Bytes currently charged to the tenant at the rack controller. *)

val drain_failures : engine -> int
