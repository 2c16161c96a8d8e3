type t = {
  l1_ns : float;
  l2_ns : float;
  llc_ns : float;
  cmem_ns : float;
  fmem_ns : float;
  minor_fault_ns : int;
  userfault_extra_ns : int;
  tlb_invalidate_ns : int;
  tlb_walk_ns : int;
  remote_fault_infiniswap_ns : int;
  remote_fault_legoos_ns : int;
  eviction_infiniswap_ns : int;
  mce_recovery_ns : int;
  pml_drain_ns : int;
}

let default =
  {
    l1_ns = 1.5;
    l2_ns = 5.0;
    llc_ns = 20.0;
    cmem_ns = 90.0;
    fmem_ns = 140.0;
    minor_fault_ns = 4_500;
    userfault_extra_ns = 3_500;
    tlb_invalidate_ns = 1_200;
    tlb_walk_ns = 100;
    remote_fault_infiniswap_ns = 40_000;
    remote_fault_legoos_ns = 10_000;
    eviction_infiniswap_ns = 32_000;
    mce_recovery_ns = 50_000;
    pml_drain_ns = 8_000;
  }

type system_profile = { system : string; dram_cache_ns : float; remote_ns : float }

let rdma_page_read_ns rdma =
  float_of_int (Kona_rdma.Cost.batch_ns rdma ~sizes:[ Kona_util.Units.page_size ])

let kona ?(rdma = Kona_rdma.Cost.default) t =
  { system = "Kona"; dram_cache_ns = t.fmem_ns; remote_ns = rdma_page_read_ns rdma }

let kona_main ?(rdma = Kona_rdma.Cost.default) t =
  { system = "Kona-main"; dram_cache_ns = t.cmem_ns; remote_ns = rdma_page_read_ns rdma }

let legoos t =
  {
    system = "LegoOS";
    dram_cache_ns = t.cmem_ns;
    remote_ns = float_of_int t.remote_fault_legoos_ns;
  }

let infiniswap t =
  {
    system = "Infiniswap";
    dram_cache_ns = t.cmem_ns;
    remote_ns = float_of_int t.remote_fault_infiniswap_ns;
  }
