(* Fig. 7: the end-to-end microbenchmark.  Each thread owns a region and
   reads + writes one cache-line in every page, twice; the local cache holds
   50% of the region (or 100%+ for the NoEvict variants).  Threads share one
   NIC.  Compared: Kona, Kona-VM, Kona-NoEvict, Kona-VM-NoEvict, and
   Kona-VM-NoWP (single fault, no dirty tracking). *)

open Kona
module Heap = Kona_workloads.Heap
module Units = Kona_util.Units
module Vm_runtime = Kona_baselines.Vm_runtime
module System = Kona_baselines.System

let region = Units.mib 16 (* per thread; paper used 4 GB *)
let passes = 2
let pages = region / Units.page_size

type variant =
  | Kona of { evict : bool }
  | Vm of { evict : bool; wp : bool }

let variant_name = function
  | Kona { evict = true } -> "Kona"
  | Kona { evict = false } -> "Kona-NoEvict"
  | Vm { evict = true; wp = true } -> "Kona-VM"
  | Vm { evict = false; wp = true } -> "Kona-VM-NoEvict"
  | Vm { evict = false; wp = false } -> "Kona-VM-NoWP"
  | Vm { evict = true; wp = false } -> "Kona-VM-Evict-NoWP"

let cache_pages ~evict = if evict then pages / 2 else 2 * pages

(* One thread's context: its own runtime + heap on the shared NIC. *)
type thread = { heap : Heap.t; base : int; elapsed : unit -> int; drain : unit -> unit }

let make_thread ~nic variant =
  let heap_capacity = region + Units.mib 1 in
  let heap, elapsed, drain =
    match variant with
    | Kona { evict } ->
        let config =
          { Runtime.default_config with fmem_pages = cache_pages ~evict }
        in
        let rt, heap = System.kona ~config ~nic ~heap_capacity () in
        (heap, (fun () -> Runtime.elapsed_ns rt), fun () -> Runtime.drain rt)
    | Vm { evict; wp } ->
        let profile = Vm_runtime.kona_vm_profile Cost_model.default Kona_rdma.Cost.default in
        let config =
          {
            Vm_runtime.default_config with
            cache_pages = cache_pages ~evict;
            write_protect = wp;
          }
        in
        let vm, heap = System.vm ~config ~nic ~profile ~heap_capacity () in
        (heap, (fun () -> Vm_runtime.elapsed_ns vm), fun () -> Vm_runtime.drain vm)
  in
  let base = Heap.alloc heap region in
  { heap; base; elapsed; drain }

(* Threads interleave page-by-page so their virtual clocks advance roughly
   together and genuinely contend for the shared NIC. *)
let run_variant ~threads variant =
  let nic = Kona_rdma.Nic.create () in
  let ts = List.init threads (fun _ -> make_thread ~nic variant) in
  for _pass = 1 to passes do
    for p = 0 to pages - 1 do
      List.iter
        (fun t ->
          let addr = t.base + (p * Units.page_size) in
          ignore (Heap.read_u64 t.heap addr);
          Heap.write_u64 t.heap addr p)
        ts
    done
  done;
  List.iter (fun t -> t.drain ()) ts;
  List.fold_left (fun acc t -> max acc (t.elapsed ())) 0 ts

let run () =
  Report.section "Fig. 7: microbenchmark total time, Kona vs Kona-VM";
  Report.note "%d pages/thread (%db region), %d passes, r+w 1 CL per page" pages region
    passes;
  Report.note "50%% local cache for evicting variants; shared NIC across threads";
  let variants =
    [
      Kona { evict = true };
      Vm { evict = true; wp = true };
      Kona { evict = false };
      Vm { evict = false; wp = true };
      Vm { evict = false; wp = false };
    ]
  in
  let threads_list = [ 1; 2; 4 ] in
  let results =
    List.map
      (fun v -> (v, List.map (fun threads -> run_variant ~threads v) threads_list))
      variants
  in
  Report.table
    ~header:[ "variant"; "1 thread"; "2 threads"; "4 threads" ]
    (List.map
       (fun (v, times) -> variant_name v :: List.map Report.ns times)
       results);
  let time v threads =
    let _, times = List.find (fun (v', _) -> v' = v) results in
    List.nth times (match threads with 1 -> 0 | 2 -> 1 | _ -> 2)
  in
  List.iter
    (fun threads ->
      Format.printf "  Kona speedup over Kona-VM at %d thread(s): %.1fx (paper: %s)@."
        threads
        (float_of_int (time (Vm { evict = true; wp = true }) threads)
        /. float_of_int (time (Kona { evict = true }) threads))
        (if threads = 1 then "6.6x" else "4-5x"))
    threads_list;
  Format.printf "  Kona-NoEvict speedup over Kona-VM-NoEvict: %.1fx (paper: 3-5x)@."
    (float_of_int (time (Vm { evict = false; wp = true }) 1)
    /. float_of_int (time (Kona { evict = false }) 1));
  Format.printf "  Kona-NoEvict speedup over Kona-VM-NoWP: %.1fx (paper: 1.2-2.9x)@."
    (float_of_int (time (Vm { evict = false; wp = false }) 1)
    /. float_of_int (time (Kona { evict = false }) 1))
