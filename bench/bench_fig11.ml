(* Fig. 11: eviction goodput at cache-line granularity.

   A region of pages each with N dirty cache-lines (contiguous from the
   page start, or alternating) is written back to a remote host by four
   strategies:

   - Kona's CL log: bitmap scan + copy runs into the log + one large RDMA
     write per full log + remote unpack + ack;
   - Kona-VM: whole 4KB pages, memcpy into registered buffers, linked RDMA
     writes;
   - 4KB no-copy [idealized]: page writes straight from registered memory;
   - CL no-copy [idealized]: per-run RDMA writes, no copy, no receiver.

   Goodput is useful (dirty) bytes over total transfer time; the tables
   report it relative to Kona-VM, as the paper does. *)

open Kona
module Units = Kona_util.Units
module Clock = Kona_util.Clock
module Qp = Kona_rdma.Qp
module Cost = Kona_rdma.Cost

let pages = 8192 (* 32 MiB region; paper used 1 GB *)
let rdma_cost = Cost.default
let batch_size = 32 (* linked WQEs per doorbell for the page/CL writers *)

type layout = Contiguous | Alternate

(* Dirty-line runs within one page for a layout: (line_index, run_length). *)
let runs_of ~layout ~n =
  match layout with
  | Contiguous -> [ (0, n) ]
  | Alternate -> List.init n (fun i -> (2 * i, 1))

(* Kona's CL log path, timed end to end. *)
let kona_cl_log ~layout ~n =
  let node = Memory_node.create ~id:0 ~capacity:(pages * Units.page_size) in
  let clock = Clock.create () in
  let qp = Qp.create ~cost:rdma_cost ~clock () in
  let controller = Rack_controller.create () in
  Rack_controller.register_node controller node;
  let log = Cl_log.create ~capacity:512 ~qp ~cost:rdma_cost ~controller () in
  let runs = runs_of ~layout ~n in
  for page = 0 to pages - 1 do
    Cl_log.note_bitmap_scan log ~lines:Units.lines_per_page;
    List.iter
      (fun (line, len) ->
        let raddr = (page * Units.page_size) + (line * Units.cache_line) in
        Cl_log.append_run log ~node:0 ~raddr ~data:(String.make (len * Units.cache_line) 'd'))
      runs
  done;
  Cl_log.flush log;
  (Clock.now clock, Cl_log.breakdown_ns log)

(* Page-granularity writer (Kona-VM), optionally skipping the local copy
   (the idealized no-copy baseline). *)
let page_writer ~copy =
  let clock = Clock.create () in
  let qp = Qp.create ~cost:rdma_cost ~clock () in
  let batch = ref [] in
  let flush () =
    if !batch <> [] then begin
      Qp.post qp (List.rev !batch);
      batch := []
    end
  in
  for page = 0 to pages - 1 do
    if copy then Clock.advance clock (Cost.memcpy_ns rdma_cost ~bytes:Units.page_size);
    batch := Qp.wqe ~signaled:(page mod batch_size = batch_size - 1) Qp.Write
               ~len:Units.page_size
             :: !batch;
    if List.length !batch >= batch_size then flush ()
  done;
  flush ();
  Qp.wait_idle qp;
  Clock.now clock

(* Per-run cache-line writer without copies (idealized CL no-copy). *)
let cl_writer_nocopy ~layout ~n =
  let clock = Clock.create () in
  let qp = Qp.create ~cost:rdma_cost ~clock () in
  let runs = runs_of ~layout ~n in
  let batch = ref [] in
  let count = ref 0 in
  let flush () =
    if !batch <> [] then begin
      Qp.post qp (List.rev !batch);
      batch := []
    end
  in
  for _page = 0 to pages - 1 do
    List.iter
      (fun (_line, len) ->
        incr count;
        batch := Qp.wqe ~signaled:(!count mod batch_size = 0) Qp.Write
                   ~len:(len * Units.cache_line)
                 :: !batch;
        if List.length !batch >= batch_size then flush ())
      runs
  done;
  flush ();
  Qp.wait_idle qp;
  Clock.now clock

let goodput_table ~layout ~ns_values =
  let vm_time = page_writer ~copy:true in
  let nocopy_4k = page_writer ~copy:false in
  List.map
    (fun n ->
      let kona, _ = kona_cl_log ~layout ~n in
      let cl_nocopy = cl_writer_nocopy ~layout ~n in
      let rel t = float_of_int vm_time /. float_of_int t in
      let useful = pages * n * Units.cache_line in
      let gbps t = float_of_int useful /. float_of_int t in
      [
        string_of_int n;
        Report.f2 (rel nocopy_4k);
        Report.f2 (rel cl_nocopy);
        Report.f2 (rel kona);
        Printf.sprintf "%.2f GB/s" (gbps kona);
      ])
    ns_values

let run () =
  Report.section "Fig. 11a: eviction goodput, contiguous dirty cache-lines";
  Report.note "%d pages, goodput relative to Kona-VM 4KB writes" pages;
  Report.table
    ~header:[ "dirty CLs"; "4KB no-copy"; "CL no-copy"; "Kona CL log"; "Kona abs" ]
    (goodput_table ~layout:Contiguous ~ns_values:[ 1; 2; 4; 6; 8; 12; 16; 32; 64 ]);
  Report.note "paper: Kona 4-5x for 1-4 contiguous; on par at 64 (full page)";

  Report.section "Fig. 11b: eviction goodput, alternate dirty cache-lines";
  Report.table
    ~header:[ "dirty CLs"; "4KB no-copy"; "CL no-copy"; "Kona CL log"; "Kona abs" ]
    (goodput_table ~layout:Alternate ~ns_values:[ 1; 2; 4; 8; 12; 16; 32 ]);
  Report.note "paper: Kona 2-3x for 2-4 random; below VM only past ~16 discontiguous";

  Report.section "Fig. 11c: Kona CL log time breakdown";
  let rows =
    List.map
      (fun n ->
        let total, breakdown = kona_cl_log ~layout:Contiguous ~n in
        (* Shares over the phase-attribution sum: rdma and ack overlap the
           CPU phases (async flushes), so they are attribution, not
           wall-clock slices. *)
        let attributed = List.fold_left (fun acc (_, v) -> acc + v) 0 breakdown in
        let pct phase =
          100. *. float_of_int (List.assoc phase breakdown) /. float_of_int attributed
        in
        [
          string_of_int n;
          Report.ns total;
          Report.f1 (pct "bitmap");
          Report.f1 (pct "copy");
          Report.f1 (pct "rdma");
          Report.f1 (pct "ack");
        ])
      [ 1; 8; 64 ]
  in
  Report.table
    ~header:[ "contig CLs"; "total"; "bitmap %"; "copy %"; "rdma %"; "ack %" ]
    rows;
  Report.note "paper (1 & 8 CLs): copy dominates; rdma 15-20%%; bitmap 15-20%%; small ack"
