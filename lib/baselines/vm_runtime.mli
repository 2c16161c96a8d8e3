(** Kona-VM: the virtual-memory-based remote-memory runtime used as the
    principal baseline (§6.1), also configurable with Infiniswap-like and
    LegoOS-like cost profiles.

    It shares Kona's caching structure and eviction policy (same
    set-associative page cache), so measured differences come from the
    mechanism, exactly as in the paper:

    - fetch: page fault on first touch of a non-resident page
      (fault + user-space handling + RDMA, folded into the profile's
      remote-fetch latency), then a second, minor fault on the first write
      because pages are mapped read-only for dirty tracking;
    - dirty tracking: write-protection faults, page granularity;
    - eviction: whole dirty 4KB pages over RDMA, plus the unmap TLB
      invalidations charged to the application (shootdowns stall it). *)

type profile = {
  profile_name : string;
  remote_fetch_ns : int;  (** end-to-end not-present fault service time *)
  eviction_extra_ns : int;  (** extra per-page eviction software cost *)
}

val kona_vm_profile : Kona.Cost_model.t -> Kona_rdma.Cost.t -> profile
(** userfaultfd handling + raw RDMA page read. *)

val legoos_profile : Kona.Cost_model.t -> profile
val infiniswap_profile : Kona.Cost_model.t -> profile

type config = {
  cost : Kona.Cost_model.t;
  rdma : Kona_rdma.Cost.t;
  cache_config : Kona_cachesim.Hierarchy.config;
  cache_pages : int;
      (** local DRAM page-cache capacity (in [page_bytes] units), 4-way
          set-associative like Kona's FMem *)
  write_protect : bool;
      (** [false] = the paper's NoWP variant: one fault per fetch, but no
          dirty tracking, so every evicted page must be written back. *)
  page_bytes : int;
      (** translation/tracking/movement granularity (default 4096).  Larger
          values model huge pages: fewer faults, but fetches, protection and
          eviction all coarsen with it — the coupling Kona's design breaks
          (§3 "Decouple data movement size from the virtual memory page
          size"). *)
  sq_depth : int option;
      (** eviction QP send-queue window; [None] = unbounded (default). *)
  signal_interval : int;
      (** selective signaling on the eviction QP (1 = every WQE, default). *)
  backoff : Kona_util.Backoff.config;
      (** stack-wide retry/backoff policy for the eviction QP and the
          control-path RPC (default {!Kona_util.Backoff.default}). *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?nic:Kona_rdma.Nic.t ->
  ?hub:Kona_telemetry.Hub.t ->
  profile:profile ->
  controller:Kona.Rack_controller.t ->
  read_local:(addr:int -> len:int -> string) ->
  unit ->
  t
(** Every runtime registers its metrics in its {!registry} — the attached
    [hub]'s, or a private one — through the same pipeline as Kona's
    runtime: the shared metric names ([fetch.latency_ns],
    [fmem.hits]/[fmem.misses], [nic.wire_bytes], [cache.*{level=...}],
    ...) alongside the fault-specific [vm.*] counters.  With a hub, the
    tracer receives [fetch.page]/[evict.page] spans and [vm.wp_fault]
    instants.  One hub per runtime instance. *)

val sink : t -> Kona_trace.Access.t -> unit
val drain : t -> unit

val elapsed_ns : t -> int

val registry : t -> Kona_telemetry.Registry.t
(** The runtime's metrics, every count it keeps. *)

val stats : t -> (string * int) list
(** A fixed view over {!registry} under undotted names: [accesses]
    ([runtime.accesses]), [remote_faults] ([vm.remote_faults]),
    [wp_faults], [pages_evicted] ([evict.pages]), [dirty_pages_written]
    ([wb.pages]), [shootdowns], [tlb_misses], [evict_wire_bytes]
    ([qp.wire_bytes{qp=evict}]), [resident_pages] ([fmem.resident]),
    [page_hits] ([fmem.hits]).  Names and order are a contract. *)

val resource_manager : t -> Kona.Resource_manager.t
