(** KLib: the Kona application runtime (§4.1).

    Wires the simulated CPU cache hierarchy's fill/writeback streams to the
    caching handler, dirty data tracker and eviction handler, charging
    virtual time to two clocks:

    - the {e application clock}: cache-level latencies, FMem accesses, and
      synchronous remote fetches (no page faults — this is the point);
    - the {e background clock}: eviction work (bitmap scans, log copies,
      RDMA writes, acks), off the critical path.

    Both share one NIC, so heavy eviction traffic delays fetches — the
    contention visible in Fig. 7's multi-threaded runs.

    The application heap remains the single byte store (as in the paper's
    instrumentation-based emulation, §5); the runtime moves real bytes only
    outward, into the memory nodes, which lets tests verify the end-to-end
    invariant: after [drain], remote memory equals the application's
    heap for every backed page.

    Latencies are {!Cost_model.default} and RDMA costs
    {!Kona_rdma.Cost.default}: both are constants, not settings. *)

type config = {
  cache_config : Kona_cachesim.Hierarchy.config;
  fmem_pages : int;
      (** local DRAM cache capacity, in 4KB frames; FMem is 4-way
          set-associative and fetches one page per miss *)
  fmem_policy : Kona_coherence.Fmem.policy;
  log_capacity : int;  (** CL-log entries per memory node before auto-flush *)
  replicas : int;  (** eviction replication degree (§4.5); 0 = off *)
  mce_threshold_ns : int option;
      (** raise a machine-check exception when a fetch exceeds this latency
          (coherence-protocol timeout under network outage, §4.5);
          [None] = never *)
  prefetch : bool;
      (** stream-prefetch sequential remote pages on the background queue
          pair — the prefetcher-crosses-page-faults advantage (§3) *)
  sq_depth : int option;
      (** per-QP send-queue window: at most this many WQEs outstanding;
          [post] stalls the caller until a slot frees.  [None] = unbounded *)
  signal_interval : int;
      (** selective signaling on the background queue pairs: of the WQEs
          requesting a completion, only every Nth raises a CQE.  1 = every
          one (default).  The demand-fetch QP always signals — its fetches
          are synchronous *)
  faults : Kona_faults.Fault_spec.t;
      (** fault-injection plan (§4.5): scheduled node crashes and link
          flaps plus probabilistic WQE loss/delay and RPC timeouts.  [[]]
          (default) = no faults: every injection hook returns without
          drawing, and more clauses can still be armed mid-run with
          {!arm_fault} *)
  fault_seed : int;
      (** seed for the injector's splitmix streams; the same seed and plan
          reproduce bit-identical fault sequences.  The streams are seeded
          at create, independent of what gets armed later *)
  check_replicas : bool;
      (** debug invariant: after every eviction batch (and after [drain]),
          fence the eviction QP and [failwith] if any live mirror diverges
          from its primary.  Expensive; off by default *)
  scrub_interval_ns : int option;
      (** background scrub-and-repair: walk every backed FMem page's
          at-rest checksums once per interval (virtual background clock),
          repairing corrupt lines from live replicas, at most 8 pages
          per poll.  [None] = off *)
  verify_checksums : bool;
      (** verify per-line checksums of the remote page on every
          synchronous demand fetch (and re-read once when a stale read is
          detected), charging one page memcpy to the app clock.  Off by
          default — the paranoid read path *)
  tenant : string option;
      (** multi-tenant identity: slab allocations are charged against this
          tenant's quota at the rack controller
          ({!Rack_controller.Quota_exceeded} past the cap).  [None]
          (default) = unmetered *)
  stream_base : int;
      (** offset for CL-log sequencer stream ids ([stream_base + node]):
          tenants sharing memory nodes need disjoint bases so the
          receivers' per-stream sequencers never interleave two tenants in
          one sequence space.  Default 0 *)
  backoff : Kona_util.Backoff.config;
      (** stack-wide retry/backoff policy: shapes the queue pairs'
          retransmission state machine and the control-path RPC
          timeout/resend loop from one knob set
          (default {!Kona_util.Backoff.default}) *)
  heartbeat_ns : int option;
      (** lease-based failure detection: each memory node heartbeats the
          membership tracker every interval (charged to the background
          clock).  A node whose lease expires is {e suspected}, then
          {e declared dead} — and only then does failover run, so a
          partitioned-but-alive node can be declared dead wrongly (the
          false-positive path that fencing must absorb).  [None]
          (default) = no leases: an actual crash is detected instantly.
          Either way there is one recovery queue — only the detector
          differs *)
  lease_ns : int;
      (** lease duration: a node is suspected when its last heartbeat is
          older than this, and declared dead at twice this age (default
          200 us).  Meaningful only with [heartbeat_ns] set *)
}

val default_config : config
(** 1024 FMem frames (4 MiB), 4-way, page-sized fetch, 512-entry log,
    no replication. *)

type t

val create :
  ?config:config ->
  ?nic:Kona_rdma.Nic.t ->
  ?hub:Kona_telemetry.Hub.t ->
  ?arbitrate:
    (node:int option -> op:Kona_rdma.Qp.op -> len:int -> now:int -> int) ->
  controller:Rack_controller.t ->
  read_local:(addr:int -> len:int -> string) ->
  unit ->
  t
(** [read_local] reads application memory (e.g. [Heap.peek_bytes]); it is
    the eviction data path.  Pass a shared [nic] to model multiple runtime
    threads contending for one adapter.

    Every runtime registers its full metric namespace ([fetch.*],
    [fmem.*], [cllog.*], [qp.*{qp=...}], [cache.*{level=...}], [nic.*],
    ...) in its {!registry}: the attached [hub]'s registry, or a private
    one without a hub.  [hub] also installs the runtime's virtual clocks
    on the hub's tracer and hands the tracer to the fetch/eviction/log
    components.  Attaching a hub changes no count and no clock.  Use one
    hub per runtime instance — registering two runtimes in one registry
    raises on the duplicate names (the rack passes each tenant a
    {!Kona_telemetry.Hub.scoped} view instead).

    [arbitrate] is installed on every queue pair this runtime creates (see
    {!Kona_rdma.Qp.create}): the rack's per-memory-node ingress schedulers
    use it to queue this tenant's traffic behind other tenants'.

    With [config.replicas > 0], [create] calls
    {!Rack_controller.replicate} on [controller] (a no-op once it holds
    that degree).  Runtimes sharing a controller (a multi-tenant rack)
    thus ship to the same mirrors, so one node's failover is whole: it
    preserves every tenant's data.  They also stamp the controller's
    fencing epoch, so a failover by any of them fences the others'
    shipments too. *)

val sink : t -> Kona_trace.Access.t -> unit
(** Feed one application access: runs the cache hierarchy, triggers
    fetches/tracking/eviction, and advances the clocks. *)

val drain : t -> unit
(** Write back every remaining dirty cache-line (CPU caches and FMem) and
    flush the CL log — a final msync.  After this, remote memory is
    byte-identical to the application's view. *)

val app_ns : t -> int
(** Application-clock time. *)

val bg_ns : t -> int
(** Background (eviction) clock time. *)

val elapsed_ns : t -> int
(** max(app, bg): the run's wall-clock analogue. *)

val registry : t -> Kona_telemetry.Registry.t
(** The runtime's metrics: every count it keeps, registered once. *)

val count : t -> string -> int
(** [count t name] reads the counter or gauge registered as [name] (full
    name, e.g. ["qp.wire_bytes{qp=fetch}"]) in {!registry}.
    [replication.*] reads 0 when the controller holds no replicas, so
    [count t "replication.divergent" = 0] checks the mirrors after
    {!drain} with or without them.
    @raise Invalid_argument for any other name the registry does not
    hold as a count: a misspelt name never reads as 0. *)

val histogram : t -> string -> Kona_util.Histogram.t
(** [histogram t name] is a copy of the histogram registered as [name]
    ([fetch.latency_ns], [failover.latency_ns], [recovery.latency_ns],
    [integrity.detect_latency_ns], ...).
    @raise Invalid_argument when {!registry} holds no histogram [name]. *)

val stats : t -> (string * int) list
(** A fixed view over {!registry}: cache levels, fetches, FMem hit/miss,
    tracked lines, evictions, log flushes, RDMA bytes, faults.  Each entry
    reads one registered metric, some under an older spelling
    ([log.lines] is [cllog.lines]); [fetch.p50_ns]/[fetch.p99_ns] are
    percentiles of [fetch.latency_ns].  Names and order are a contract:
    perf's [sim_digest] hashes [stats @ integrity_counters]. *)

(** {2 Failure recovery (§4.5)}

    Fault handling is driven by the virtual clocks: [sink] and [drain]
    poll the injector for due node crashes.  A crashed primary is failed
    over to its first live mirror through a rack-controller RPC exchange
    (latency recorded in [failover.latency_ns]), which fences the
    displaced store at a fresh rack-global epoch; the replication degree
    is then restored by a background copy onto a fresh mirror
    ([recovery.latency_ns], [recovery.bytes]).  Both run as tasks on one
    recovery queue, whichever detector declares the crash (instant
    without [heartbeat_ns], lease expiry with it).  Without replicas the
    crash degrades the run instead of raising: lost CL-log deliveries are
    counted and {!degraded} reports the reason. *)

val recover_heap :
  t -> restore:(addr:int -> data:string -> unit) -> int * int
(** Compute-node crash recovery (failure mode 1): rebuild the application
    heap from remote memory.  Flushes the CL-log tail (the unacked dirty
    lines), then reads every backed page over batched RDMA and hands it to
    [restore] (e.g. [Heap.restore_page] of a fresh heap).  Pages on
    crashed, un-failed-over nodes are lost.  Returns
    [(pages_restored, pages_lost)] for this call; the duration lands in
    the [recovery.latency_ns] histogram. *)

val degraded : t -> string option
(** [Some reason] when the run lost data or a recovery path failed: a node
    crashed with no (live) replica, the failover RPC exhausted its
    retries, or — with replication off — CL-log writes were lost to a
    crashed node.  [None] means every injected fault was absorbed. *)

(** {2 Partition-tolerant membership (PR 9)}

    With [heartbeat_ns] set, failover is triggered by lease expiry — the
    detector cannot tell a crashed node from a partitioned one, so a
    node cut off longer than twice its lease is declared dead even when
    healthy (a {e false positive}).  Failover then fences the displaced
    store at a fresh rack-global epoch: when the partition heals, the
    deferred deliveries (captured by the CL-log partition gate, stamps
    intact) land on the fenced store and are rejected as stale — the
    split-brain writes are counted ([fencing.rejects]), never applied.
    Failover, re-replication and drain run as resumable tasks on an
    interruptible recovery queue, advanced one bounded step per fault
    poll (or explicitly via {!step_recovery}), so overlapping faults
    interleave with recovery instead of raising. *)

val membership : t -> Kona_membership.Membership.t option
(** Present when [config.heartbeat_ns] is set. *)

val partition_active : t -> id:int -> bool
(** Is physical node [id] currently inside a partition window? *)

val deferred_pending : t -> int
(** Deliveries captured by the partition gate and not yet replayed. *)

val recovery_pending : t -> string list
(** Names of queued recovery tasks, in-flight head first. *)

val step_recovery :
  t -> [ `Idle | `Stepped of string | `Finished of string ]
(** Advance the in-flight recovery task one bounded unit — the rack
    engine's step loop drives recovery through this between ops. *)

val track_node : t -> id:int -> unit
(** Start leasing physical node [id] (no-op without membership) — rack
    node-add ops register fresh nodes here. *)

(** {2 End-to-end data integrity (PR 4)}

    Every FMem page carries per-cache-line CRC32C checksums at the memory
    nodes, and every CL-log delivery is stamped with an (epoch, sequence)
    pair per destination stream.  Detection happens at three points: on
    delivery (wire-CRC rejects of torn lines, sequence-verdict drops of
    duplicated or stale shipments), on verified demand fetches
    ([verify_checksums]), and during background scrub sweeps
    ([scrub_interval_ns]).  Corrupt lines are quarantined and repaired
    from the first live replica holding a clean copy; a line with no
    clean copy anywhere marks the run {!degraded} and its page is
    excluded from byte-level oracles via {!unrepairable_pages}.  Such a
    line is declared (and counted) once: later sweeps and verified
    fetches skip it until an overwrite heals it or a fresh bit flip
    re-arms it. *)

val integrity_counters : t -> (string * int) list
(** A fixed view over {!registry}: every [integrity.*], [seq.*] and
    [scrub.*] count, then the partition, membership, fencing and recovery
    counts, each under its registered name.  Names and order are a
    contract: two runs of the same (plan, seed) must produce identical
    lists — [konactl rack --repro-check] compares tenant 0's bit for
    bit. *)

val unrepairable_pages : t -> int list
(** Virtual pages declared unrepairable (sorted, deduplicated): a corrupt
    line was found there and no live copy had a clean version.  Byte-level
    divergence oracles must exclude these pages. *)

(** {2 Rack hooks (multi-tenant simulation)} *)

val set_on_fetch : t -> (vpage:int -> unit) -> unit
(** Observe every synchronous demand fetch (after verification): the rack
    registers shared-segment sharers with its rack-level directory here. *)

val set_on_evict : t -> (vpage:int -> dirty:bool -> unit) -> unit
(** Observe every page leaving FMem (capacity victims and [drain]
    writebacks), after its dirty lines shipped.  [dirty] = the page held
    dirty FMem lines.  The rack uses it to snoop remote readers when a
    shared-segment writer evicts. *)

val invalidate_page : t -> vpage:int -> unit
(** A remote writer recalled [vpage] (shared read-mostly segment): drop
    this tenant's local copy — CPU-cached lines are snooped and any dirty
    lines written back — so the next access re-fetches.  Counted in
    [coherence.invalidations]. *)

val set_writeback_filter : t -> (node:int -> addr:int -> data:string -> bool) -> unit
(** Install the home-side stale-writeback judgment on this tenant's CL
    log ({!Cl_log.set_stale_filter}): under multi-writer coherence a
    writeback staged before the directory revoked the holder's grant can
    deliver after the line's next owner already wrote back a newer
    value, and the home drops exactly those lines. *)

val flush_log : t -> unit
(** Flush the CL log's staged buffers.  The rack calls this before it
    moves a page: staged entries resolve (node, raddr) at append time and
    must land at the pre-move address. *)

val post_bg_message :
  t -> node:int -> len:int -> deliver:(unit -> unit) -> unit
(** Post one background control message of [len] bytes to [node] on the
    eviction QP: it pays wire time, contends at the node's ingress
    scheduler ([arbitrate]), and [deliver] fires when the background clock
    reaches its completion — how the rack prices invalidation traffic. *)

(** {2 Component access (examples, tests, benches)} *)

val injector : t -> Kona_faults.Injector.t
(** The fault injector, created from [config.faults] and
    [config.fault_seed]; its counters report every fault injected. *)

(** {2 Scenario-engine adapters}

    Mid-run op hooks for the autonomous scenario engine (lib/scenario):
    the same machinery fault plans trigger on the virtual clock, exposed
    as immediate, deterministic actions. *)

val crash_node : t -> id:int -> unit
(** Fail-stop [id] now — exactly what a due [node-crash] plan clause
    does.  A logical id whose current backing is alive crashes that
    backing; any other id is a physical store (a displaced former
    backing, found via {!Rack_controller.find_physical}, or a mirror).
    Without membership the crash is detected instantly: failover and
    re-replication are queued and the recovery queue is pumped to idle
    before this returns.  With membership, failover waits for the lease
    to expire.  A mirror crash queues re-replication in both modes.
    Counted like a plan crash, in [faults.node_crashes] and
    [faults.injected]. *)

val force_scrub : t -> unit
(** Run one complete scrub sweep immediately (no-op when the runtime has
    no scrubber configured). *)

val arm_fault : t -> Kona_faults.Fault_spec.clause -> unit
(** Arm one more fault clause mid-run.  Probabilistic kinds combine with
    already-armed probabilities.  [Link_flap] and [Partition] start now,
    whatever their [at_ns]: a NIC outage of the clause's duration, a
    window opened at the next poll.  [Node_crash] joins the crash
    calendar. *)

val controller : t -> Rack_controller.t
(** The rack controller passed at [create]: it holds every node's
    backing and mirrors, and failover retargets logical node ids inside
    it. *)

val resource_manager : t -> Resource_manager.t
