(** The Caching Handler: services VFMem cache-line requests that miss the
    CPU hierarchy — the cache-remote-data primitive (§4.2).

    On an LLC miss to VFMem the directory consults FMem: a hit costs one
    FPGA-memory access (NUMA-like latency); a miss triggers an on-demand
    RDMA read of the page (FMem always caches whole pages, §4.4) on the
    {e application's} clock, since demand misses are synchronous.
    Inserting the fetched page may produce an FMem victim, which is
    handed to the eviction handler (background clock).

    There are no page faults anywhere on this path.

    {b Failure handling (§4.5).}  A network outage delays the coherence
    response past the protocol's tolerance; the CPU surfaces this as a
    machine-check exception.  When [mce_threshold_ns] is set, any fetch
    whose completion exceeds it raises the MCE path: the runtime charges
    the MCA recovery cost and retries — the paper's option (i), handling
    the MCE on Intel's machine-check architecture. *)

type t

val create :
  cost:Cost_model.t ->
  ?mce_threshold_ns:int ->
  ?prefetch_qp:Kona_rdma.Qp.t ->
  ?tracer:Kona_telemetry.Tracer.t ->
  fmem:Kona_coherence.Fmem.t ->
  rm:Resource_manager.t ->
  fetch_qp:Kona_rdma.Qp.t ->
  on_victim:(vpage:int -> dirty_lo:int -> dirty_hi:int -> unit) ->
  unit ->
  t
(** [fetch_qp] must be clocked by the application thread.

    [prefetch_qp] enables next-page stream prefetching (see
    {!Prefetcher}): sequential demand misses trigger asynchronous fetches
    on that queue pair (a background clock — the application does not
    wait), which is only possible because Kona's fetches are cache misses
    rather than serializing page faults.

    [tracer] receives a [fetch.page] span per demand fetch and a
    [fetch.mce] instant per machine-check raised. *)

val on_fill : t -> addr:int -> unit
(** Handle one LLC-miss line request for VFMem address [addr]. *)

val set_on_fetch_verify : t -> (vpage:int -> unit) -> unit
(** Install the integrity hook run after every synchronous demand fetch
    (eviction-fetch included): the runtime uses it for stale-read
    detection and on-fetch checksum verification of the remote page the
    fetch just read. *)

val set_on_fetch : t -> (vpage:int -> unit) -> unit
(** Install an observation hook run after every synchronous demand fetch,
    after verification: the rack layer uses it to register shared-segment
    sharers with the rack-level directory. *)

val fmem_hits : t -> int
val fmem_misses : t -> int
val pages_fetched : t -> int
val bytes_fetched : t -> int

val mce_raised : t -> int
(** Machine-check exceptions taken on over-latency fetches. *)

val prefetches_issued : t -> int
val prefetches_useful : t -> int
(** Prefetched pages that later absorbed a demand miss. *)

val fetch_latency : t -> Kona_util.Histogram.t
(** Distribution of demand-fetch completion latencies (observability; the
    MCE threshold is exactly a bound on this distribution's tail). *)
