(** The cache-line eviction log (§4.4 "Evicting dirty data"): a FaRM-style
    ring-buffer software log that aggregates dirty cache-lines — contiguous
    or not, even from different pages — into RDMA-registered buffers, so a
    whole batch ships as a single large RDMA write per memory node.

    Each log entry is an 8-byte destination address plus a {e run} of one
    or more contiguous dirty cache-lines: runs coalesce, so a fully dirty
    page costs one entry (this is why Kona is "on par when the whole page
    is dirty", Fig. 11a).  The per-flush time decomposes exactly as
    Fig. 11c: scanning the dirty bitmap, copying lines into the log buffer,
    the RDMA write, and waiting for the remote log receiver's
    acknowledgment. *)

type t

val entry_bytes : int
(** Wire size of a single-line entry (72): an 8-byte destination header
    and the line; longer runs cost [8 + 64 * lines]. *)

val create :
  ?capacity:int ->
  ?stream_base:int ->
  ?tracer:Kona_telemetry.Tracer.t ->
  qp:Kona_rdma.Qp.t ->
  cost:Kona_rdma.Cost.t ->
  controller:Rack_controller.t ->
  unit ->
  t
(** [capacity] in cache-lines per node buffer (default 512; ~36KB logs).
    Destination node ids are logical ids of [controller]: each shipment
    is posted to the node's current backing and all of its
    {!Rack_controller.mirrors} in one linked batch, and the (parallel)
    acknowledgments are awaited together (§4.5).  [tracer] receives a
    [cllog.flush_node] event per shipped batch and a [cllog.fence] span
    per synchronous flush.

    [stream_base] (default 0) offsets the sequencer stream ids this log
    stamps shipments with ([stream_base + node]): in a multi-tenant rack
    each tenant gets a disjoint base, so the per-stream Rx sequencers at
    shared memory nodes never see two tenants interleaved in one sequence
    space. *)

val clock : t -> Kona_util.Clock.t
(** The background (eviction-path) clock the log charges to. *)

(** {2 Integrity wiring (PR 4)}

    Every shipment carries a [(stream, epoch, seq)] stamp and per-line
    CRC32C values computed when the lines were staged; the receiving
    {!Memory_node} classifies the stamp and verifies every line before
    applying.  The stream is the destination's logical node id (plus
    [stream_base]).  The epoch is the controller's
    {!Rack_controller.fencing_epoch} when the shipment leaves, so every
    sender sharing the controller stamps a failover's new epoch from its
    next shipment on.  The CRC pass is folded into the copy-into-log
    memcpy charge — it touches the same bytes in the same loop. *)

val set_inject :
  t -> (targets:int -> Kona_faults.Injector.delivery_fault option) -> unit
(** Install the per-shipment corruption decision hook (torn-write,
    bit-flip, dup-deliver).  At most one copy per shipment is tampered
    per category; dup'd shipments are replayed to the primary, with
    their original stamp, at the next flush touching that node. *)

val set_on_report :
  t -> (node:int -> target:Memory_node.t -> Memory_node.report -> unit) -> unit
(** Observe every delivery's {!Memory_node.report} (quarantine, detection
    counters); called after the receiver classified and applied it. *)

val set_on_flip : t -> (target:Memory_node.t -> addr:int -> fresh:bool -> unit) -> unit
(** Observe every armed at-rest bit flip ([fresh] = the line verified
    clean beforehand) — the oracle's arming registry. *)

val set_gate : t -> (node:int -> fire:(unit -> unit) -> bool) -> unit
(** Install the partition gate, consulted at each delivery's completion
    time with the {e physical} target id.  Returning [true] means the
    gate captured [fire]: the runtime defers the delivery (stamp intact)
    until the partition heals, at which point a fenced target rejects it
    as stale — the split-brain write path. *)

val set_stale_filter : t -> (node:int -> addr:int -> data:string -> bool) -> unit
(** Install the stale-writeback filter, consulted per cache-line at each
    delivery's completion time.  Returning [true] drops that line: under
    multi-writer coherence, an eviction staged before the directory
    revoked the holder's grant can deliver {e after} the line's next
    owner wrote back a newer value, and the home resolves the race by
    NACKing the stale copy (runs split so fresh lines still land).
    Without a filter the delivery path is unchanged. *)

val stale_lines : t -> int
(** Cache-lines dropped by the stale-writeback filter. *)

val append_run : t -> node:int -> raddr:int -> data:string -> unit
(** Stage one run of contiguous dirty cache-lines ([data] length must be a
    positive multiple of 64) bound for [node]/[raddr]; charges the
    copy-into-log cost (one memcpy per run) and auto-flushes the node's
    buffer when full. *)

val note_bitmap_scan : t -> lines:int -> unit
(** Charge (and attribute) the dirty-bitmap scan the eviction handler just
    performed while collecting lines. *)

val flush : t -> unit
(** Fence: ship all staged entries — one RDMA write per destination node,
    coalesced under a {e single} doorbell across nodes — wait for every
    outstanding log write to complete (which fires their deliveries into
    the memory nodes), plus the final receiver acknowledgment.  The ack
    round-trip is charged only when something shipped since the previous
    fence: an empty fence advances the clock by zero.  Auto-flushes
    triggered by [append_run] are asynchronous — their acks are hidden by
    continued staging, as in the paper, and their bytes become visible at
    the memory node only once the clock reaches the write's completion
    time. *)

val lines_logged : t -> int
val flushes : t -> int

val appends : t -> int
(** Runs staged via [append_run]. *)

val payload_bytes : t -> int
(** Application cache-line bytes staged into the log. *)

val wire_bytes : t -> int
(** Bytes shipped over RDMA for flushed batches, headers and replica copies
    included. *)

val overhead_bytes : t -> int
(** [wire_bytes - payload_bytes] floored at zero while a batch is staged:
    the log's own dirty-data amplification in bytes. *)

val doorbell_batches : t -> int
(** Linked posts issued (auto-flushes plus fence-coalesced batches). *)

val doorbell_wqes : t -> int
(** WQEs shipped across all doorbells; [doorbell_wqes /
    doorbell_batches] is the mean doorbell batch size. *)

val doorbell_batch_peak : t -> int
(** Largest number of WQEs ever coalesced under one doorbell. *)

val lost_deliveries : t -> int
(** Log writes whose destination node had crashed by completion time.
    With mirrors configured the data survives on them; without, this is
    data loss and the runtime reports degradation. *)

val lost_lines : t -> int
(** Cache-lines carried by lost deliveries. *)

val breakdown_ns : t -> (string * int) list
(** [("bitmap", ns); ("copy", ns); ("rdma", ns); ("ack", ns)] — Fig. 11c.
    Phase attribution: bitmap and copy are synchronous CPU time; rdma is
    doorbell and send-window time plus the fence's completion wait; ack is
    the unhidden fence acknowledgment.  Every nanosecond charged to the
    log's (background) clock lands in exactly one phase, so the phases sum
    to the log's background-clock contribution. *)
