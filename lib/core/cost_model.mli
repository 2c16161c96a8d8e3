(** Latency constants for every mechanism in the simulation, in one place.

    Memory-level latencies follow commodity servers; remote-fault latencies
    are the paper's own measurements (§2.1, §6.2): Infiniswap ≈ 40 us and
    LegoOS ≈ 10 us per remote fetch including the fault-handling software
    stack, a user-space (userfaultfd) handler in between, and raw RDMA at
    ≈ 3 us per 4KB.  Kona replaces the fault with a cache miss served by the
    FPGA: FMem hit at NUMA-like latency, miss at RDMA latency with no fault
    overhead. *)

type t = {
  l1_ns : float;
  l2_ns : float;
  llc_ns : float;
  cmem_ns : float;  (** CPU-attached DRAM *)
  fmem_ns : float;  (** FPGA-attached DRAM (≈1.5x CMem: NUMA-like, §4.3) *)
  minor_fault_ns : int;  (** kernel entry/exit + PTE fix-up (write-protect fault) *)
  userfault_extra_ns : int;  (** extra for routing a fault to user space *)
  tlb_invalidate_ns : int;  (** single-page invalidation + IPI share *)
  tlb_walk_ns : int;  (** page-table walk after a TLB miss *)
  remote_fault_infiniswap_ns : int;  (** measured end-to-end (block layer) *)
  remote_fault_legoos_ns : int;
  eviction_infiniswap_ns : int;  (** measured page eviction (§2.1, >32us) *)
  mce_recovery_ns : int;
      (** handling a machine-check exception raised by a coherence-protocol
          timeout during a network outage (§4.5, Intel MCA path) *)
  pml_drain_ns : int;
      (** draining one full 512-entry Page Modification Log buffer (§8:
          Intel PML removes write faults but stays page-granular) *)
}

val default : t

(** Per-system remote-access profiles used by KCacheSim (Fig. 8): the DRAM
    cache level's latency and the remote-miss latency. *)
type system_profile = {
  system : string;
  dram_cache_ns : float;  (** CMem for the baselines, FMem for Kona *)
  remote_ns : float;  (** one remote fetch, software stack included *)
}

val kona : ?rdma:Kona_rdma.Cost.t -> t -> system_profile
(** Remote = RDMA page read, no faults; cache in FMem. *)

val kona_main : ?rdma:Kona_rdma.Cost.t -> t -> system_profile
(** Kona if it could track CMem (no NUMA penalty) — upper bound (§6.2). *)

val legoos : t -> system_profile
val infiniswap : t -> system_profile
