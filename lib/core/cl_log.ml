open Kona_util
open Kona_integrity
module Qp = Kona_rdma.Qp
module Cost = Kona_rdma.Cost
module Tracer = Kona_telemetry.Tracer

let header_bytes = 8
let entry_bytes = header_bytes + Units.cache_line

type t = {
  capacity : int;
  qp : Qp.t;
  cost : Cost.t;
  stream_base : int; (* tenant offset for sequencer streams (stream_base + node) *)
  controller : Rack_controller.t; (* node ids -> backing and mirrors; the epoch *)
  tracer : Tracer.t option;
  buffers : (int, Memory_node.log_entry list ref) Hashtbl.t; (* node -> staged, newest first *)
  staged : (int, int) Hashtbl.t; (* node -> count *)
  seq_tx : Sequencer.Tx.t; (* per-destination-node shipment stamps *)
  pending_dups :
    (int, (Memory_node.log_entry list * Memory_node.delivery) list ref) Hashtbl.t;
      (* dup-deliver fault: shipments to replay at the next flush *)
  mutable inject :
    (targets:int -> Kona_faults.Injector.delivery_fault option) option;
  (* Partition gate: consulted at each delivery's completion time with
     the physical target id; returning true means the gate captured
     [fire] (the runtime defers it until the partition heals). *)
  mutable gate : (node:int -> fire:(unit -> unit) -> bool) option;
  mutable stale_filter : (node:int -> addr:int -> data:string -> bool) option;
  mutable on_report :
    (node:int -> target:Memory_node.t -> Memory_node.report -> unit) option;
  mutable on_flip : (target:Memory_node.t -> addr:int -> fresh:bool -> unit) option;
  mutable lines_logged : int;
  mutable appends : int;
  mutable payload_bytes : int;
  mutable wire_bytes : int;
  mutable flushes : int;
  mutable unfenced_flushes : int; (* node batches shipped since the last fence *)
  mutable doorbell_batches : int;
  mutable doorbell_wqes : int;
  mutable doorbell_batch_peak : int;
  mutable lost_deliveries : int;
  mutable lost_lines : int;
  mutable stale_lines : int;
  mutable bitmap_ns : int;
  mutable copy_ns : int;
  mutable rdma_ns : int;
  mutable ack_ns : int;
}

let create ?(capacity = 512) ?(stream_base = 0) ?tracer ~qp ~cost ~controller
    () =
  assert (capacity > 0);
  assert (stream_base >= 0);
  {
    capacity;
    qp;
    cost;
    stream_base;
    controller;
    tracer;
    buffers = Hashtbl.create 4;
    staged = Hashtbl.create 4;
    seq_tx = Sequencer.Tx.create ();
    pending_dups = Hashtbl.create 4;
    inject = None;
    gate = None;
    stale_filter = None;
    on_report = None;
    on_flip = None;
    lines_logged = 0;
    appends = 0;
    payload_bytes = 0;
    wire_bytes = 0;
    flushes = 0;
    unfenced_flushes = 0;
    doorbell_batches = 0;
    doorbell_wqes = 0;
    doorbell_batch_peak = 0;
    lost_deliveries = 0;
    lost_lines = 0;
    stale_lines = 0;
    bitmap_ns = 0;
    copy_ns = 0;
    rdma_ns = 0;
    ack_ns = 0;
  }

let clock t = Qp.clock t.qp

let charge t phase ns =
  Clock.advance (clock t) ns;
  match phase with
  | `Bitmap -> t.bitmap_ns <- t.bitmap_ns + ns
  | `Copy -> t.copy_ns <- t.copy_ns + ns
  | `Rdma -> t.rdma_ns <- t.rdma_ns + ns
  | `Ack -> t.ack_ns <- t.ack_ns + ns

let note_bitmap_scan t ~lines = charge t `Bitmap (Cost.bitmap_scan_ns t.cost ~lines)

let staged_count t node = Option.value ~default:0 (Hashtbl.find_opt t.staged node)
let set_inject t f = t.inject <- Some f
let set_on_report t f = t.on_report <- Some f
let set_on_flip t f = t.on_flip <- Some f
let set_gate t f = t.gate <- Some f
let set_stale_filter t f = t.stale_filter <- Some f
let stale_lines t = t.stale_lines

let wire_of entries =
  List.fold_left
    (fun acc (e : Memory_node.log_entry) ->
      acc + header_bytes + String.length e.Memory_node.data)
    0 entries

let lines_of entries =
  List.fold_left
    (fun acc (e : Memory_node.log_entry) ->
      acc + (String.length e.Memory_node.data / Units.cache_line))
    0 entries

(* torn-write fault: corrupt the tail lines of one entry in one copy's
   shipment, leaving the CRCs as computed at staging — the receiver's
   per-line wire-CRC check rejects exactly the torn lines.  A one-line
   entry is torn whole. *)
let tamper_entry (e : Memory_node.log_entry) =
  let nlines = Array.length e.Memory_node.crcs in
  let from = nlines / 2 in
  let data = Bytes.of_string e.Memory_node.data in
  for i = from to nlines - 1 do
    let pos = i * Units.cache_line in
    Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 1))
  done;
  { e with Memory_node.data = Bytes.to_string data }

(* Writeback-race resolution under multi-writer coherence: an eviction
   staged before the directory revoked the holder's ownership can
   deliver after the line's next owner already wrote back a newer value.
   A real home NACKs such a writeback — the holder's grant is stale —
   so, when a filter is installed, stale lines are dropped at delivery
   time.  Runs split so the fresh lines of a mixed run still land. *)
let drop_stale t ~node entries =
  match t.stale_filter with
  | None -> entries
  | Some stale ->
      List.concat_map
        (fun (e : Memory_node.log_entry) ->
          let nlines = Array.length e.Memory_node.crcs in
          let line i =
            {
              Memory_node.addr = e.Memory_node.addr + (i * Units.cache_line);
              data =
                String.sub e.Memory_node.data (i * Units.cache_line)
                  Units.cache_line;
              crcs = [| e.Memory_node.crcs.(i) |];
            }
          in
          let fresh = ref [] in
          for i = nlines - 1 downto 0 do
            let le = line i in
            if
              stale ~node ~addr:le.Memory_node.addr ~data:le.Memory_node.data
            then t.stale_lines <- t.stale_lines + 1
            else fresh := le :: !fresh
          done;
          if List.length !fresh = nlines then [ e ] else !fresh)
        entries

(* Delivery body: classify + verify + apply on the target, then arm
   any at-rest bit flip the injector scheduled for this copy. *)
let deliver_now t ~node ~target ~entries ~delivery ~lines ~flip =
  try
    let entries = drop_stale t ~node entries in
    let report = Memory_node.receive_log ~delivery target entries in
    (match t.on_report with Some f -> f ~node ~target report | None -> ());
    match flip with
    | None -> ()
    | Some _ when entries = [] -> ()
    | Some (entry_pick, line_pick, bit_pick) ->
        let e = List.nth entries (entry_pick mod List.length entries) in
        let nlines = Array.length e.Memory_node.crcs in
        let addr =
          e.Memory_node.addr + (line_pick mod nlines * Units.cache_line)
        in
        let fresh = Memory_node.corrupt_bit target ~addr ~bit:bit_pick in
        (match t.on_flip with
        | Some f -> f ~target ~addr ~fresh:(fresh = `Fresh)
        | None -> ())
  with Memory_node.Crashed _ ->
    (* A write to a node that crashed while the WQE was in flight is
       lost, not fatal: with replicas the same batch lands on the
       mirrors (failover preserves it); without, the loss is counted
       and surfaced as graceful degradation. *)
    t.lost_deliveries <- t.lost_deliveries + 1;
    t.lost_lines <- t.lost_lines + lines

(* Delivery closure fired at WQE completion: a partition gate may capture
   it — the runtime stashes [fire] and replays it, stamp intact, when the
   partition heals (where a fenced target then rejects it as stale). *)
let deliver t ~node ~target ~entries ~delivery ~lines ~flip () =
  let fire () = deliver_now t ~node ~target ~entries ~delivery ~lines ~flip in
  match t.gate with
  | Some gate when gate ~node:(Memory_node.id target) ~fire -> ()
  | Some _ | None -> fire ()

(* Take one node's staged entries off the buffer and build the WQEs
   shipping them to the primary and its mirrors — without posting, so a
   fence can coalesce several nodes under one doorbell.  Any shipments
   the dup-deliver fault queued for this node are replayed here too
   (primary only, original stamp), exercising duplicate rejection. *)
let take_node_wqes t node =
  let fresh_wqes =
    match Hashtbl.find_opt t.buffers node with
    | None | Some { contents = [] } -> []
    | Some entries_ref ->
        let entries = List.rev !entries_ref in
        entries_ref := [];
        Hashtbl.replace t.staged node 0;
        let wire = wire_of entries in
        let targets =
          Rack_controller.node t.controller ~id:node
          :: Rack_controller.mirrors t.controller ~id:node
        in
        let ntargets = List.length targets in
        t.wire_bytes <- t.wire_bytes + (wire * ntargets);
        t.flushes <- t.flushes + 1;
        t.unfenced_flushes <- t.unfenced_flushes + 1;
        (match t.tracer with
        | Some tr ->
            Tracer.instant tr "cllog.flush_node"
              ~args:
                [
                  ("node", node);
                  ("entries", List.length entries);
                  ("wire_bytes", wire);
                  ("replicas", ntargets - 1);
                ]
        | None -> ());
        let lines = lines_of entries in
        (* Streams are namespaced per tenant (stream_base + node): two
           tenants shipping to one node must not interleave one sequence
           space, or the receiver's gap/duplicate verdicts would fire on
           perfectly ordered cross-tenant traffic.  The epoch is the
           controller's, read at shipment: a failover by any sender
           sharing the controller restamps this one too. *)
        let stream = t.stream_base + node in
        let epoch = Rack_controller.fencing_epoch t.controller in
        let delivery =
          {
            Memory_node.stream;
            epoch;
            seq = Sequencer.Tx.next t.seq_tx ~epoch ~stream;
          }
        in
        let fault =
          match t.inject with Some f -> f ~targets:ntargets | None -> None
        in
        (match fault with
        | Some { Kona_faults.Injector.dup = true; _ } ->
            let r =
              match Hashtbl.find_opt t.pending_dups node with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.add t.pending_dups node r;
                  r
            in
            r := (entries, delivery) :: !r
        | _ -> ());
        List.mapi
          (fun i target ->
            (* At most one copy per shipment is tampered per category,
               so when replicas exist a clean source always survives. *)
            let entries_i, flip_i =
              match fault with
              | None -> (entries, None)
              | Some { Kona_faults.Injector.torn; flip; _ } ->
                  let entries_i =
                    match torn with
                    | Some (tpick, epick) when tpick mod ntargets = i ->
                        let victim = epick mod List.length entries in
                        List.mapi
                          (fun j e -> if j = victim then tamper_entry e else e)
                          entries
                    | _ -> entries
                  in
                  let flip_i =
                    match flip with
                    | Some (tpick, epick, lpick, bpick) when tpick mod ntargets = i
                      ->
                        Some (epick, lpick, bpick)
                    | _ -> None
                  in
                  (entries_i, flip_i)
            in
            Qp.wqe ~signaled:true
              ~deliver:
                (deliver t ~node ~target ~entries:entries_i ~delivery ~lines
                   ~flip:flip_i)
              ~node Qp.Write ~len:wire)
          targets
  in
  let dup_wqes =
    match Hashtbl.find_opt t.pending_dups node with
    | None | Some { contents = [] } -> []
    | Some r ->
        let dups = List.rev !r in
        r := [];
        List.map
          (fun (entries, delivery) ->
            let wire = wire_of entries in
            t.wire_bytes <- t.wire_bytes + wire;
            t.unfenced_flushes <- t.unfenced_flushes + 1;
            let target = Rack_controller.node t.controller ~id:node in
            Qp.wqe ~signaled:true
              ~deliver:
                (deliver t ~node ~target ~entries ~delivery
                   ~lines:(lines_of entries) ~flip:None)
              ~node Qp.Write ~len:wire)
          dups
  in
  fresh_wqes @ dup_wqes

(* Ship one linked batch (one doorbell): the post returns after the
   doorbell (plus any send-window backpressure) and the acknowledgment
   latency is hidden by continuing to stage more dirty cache-lines
   (§4.4).  Only the clock delta the post actually cost is attributed to
   the rdma phase; wire time is charged where it blocks, at [flush]. *)
let post_wqes t wqes =
  if wqes <> [] then begin
    let before = Clock.now (clock t) in
    Qp.post t.qp wqes;
    t.rdma_ns <- t.rdma_ns + (Clock.now (clock t) - before);
    t.doorbell_batches <- t.doorbell_batches + 1;
    let n = List.length wqes in
    t.doorbell_wqes <- t.doorbell_wqes + n;
    if n > t.doorbell_batch_peak then t.doorbell_batch_peak <- n
  end

let flush_node t node = post_wqes t (take_node_wqes t node)

let append_run t ~node ~raddr ~data =
  let len = String.length data in
  if len = 0 || len mod Units.cache_line <> 0 then
    invalid_arg "Cl_log.append_run: data must be whole cache-lines";
  let lines = len / Units.cache_line in
  charge t `Copy (Cost.memcpy_ns t.cost ~bytes:(header_bytes + len));
  let entries_ref =
    match Hashtbl.find_opt t.buffers node with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.buffers node r;
        r
  in
  (* Per-line CRCs are computed during the same pass that copies lines
     into the log buffer, so they ride the memcpy charge above. *)
  entries_ref := Memory_node.entry ~addr:raddr ~data :: !entries_ref;
  Hashtbl.replace t.staged node (staged_count t node + lines);
  t.lines_logged <- t.lines_logged + lines;
  t.appends <- t.appends + 1;
  t.payload_bytes <- t.payload_bytes + len;
  if staged_count t node >= t.capacity then flush_node t node

let flush t =
  let began = Clock.now (clock t) in
  let nodes = Hashtbl.fold (fun node _ acc -> node :: acc) t.buffers [] in
  (* Nodes with only a pending dup redelivery still need a shipment. *)
  let nodes =
    Hashtbl.fold
      (fun node r acc ->
        if !r <> [] && not (List.mem node acc) then node :: acc else acc)
      t.pending_dups nodes
  in
  (* Doorbell batching: the fence coalesces every staged node's log write
     into a single linked post — one doorbell for the whole rack. *)
  post_wqes t (List.concat_map (fun node -> take_node_wqes t node) nodes);
  (* Fence: wait for outstanding log writes (this fires their deliveries),
     then the last (unhidden) acknowledgment round-trip — but only when
     something actually shipped since the previous fence. *)
  let before_wait = Clock.now (clock t) in
  Qp.wait_idle t.qp;
  t.rdma_ns <- t.rdma_ns + (Clock.now (clock t) - before_wait);
  if t.unfenced_flushes > 0 then begin
    charge t `Ack (int_of_float t.cost.Cost.ack_ns);
    t.unfenced_flushes <- 0
  end;
  match t.tracer with
  | Some tr ->
      Tracer.span tr "cllog.fence" ~dur_ns:(Clock.now (clock t) - began)
        ~args:[ ("flushes", t.flushes) ]
  | None -> ()

let lines_logged t = t.lines_logged
let flushes t = t.flushes
let appends t = t.appends
let payload_bytes t = t.payload_bytes
let wire_bytes t = t.wire_bytes
let doorbell_batches t = t.doorbell_batches
let doorbell_wqes t = t.doorbell_wqes
let doorbell_batch_peak t = t.doorbell_batch_peak
let lost_deliveries t = t.lost_deliveries
let lost_lines t = t.lost_lines

(* Bytes shipped beyond the application payload: entry headers, wire
   framing, replica copies — the log's own amplification. *)
let overhead_bytes t = Stdlib.max 0 (t.wire_bytes - t.payload_bytes)

let breakdown_ns t =
  [ ("bitmap", t.bitmap_ns); ("copy", t.copy_ns); ("rdma", t.rdma_ns); ("ack", t.ack_ns) ]
