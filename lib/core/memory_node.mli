(** A disaggregated memory node: a dumb byte store serving one-sided RDMA
    reads/writes, plus the one piece of near-data compute Kona needs — the
    {e cache-line log receiver} thread that unpacks aggregated dirty
    cache-lines and scatters them to their home addresses (§4.4).

    Since PR 4 the node also keeps a per-cache-line CRC32C table (the
    software stand-in for the FPGA's per-line ECC): trusted writes record
    checksums, the log receiver verifies every delivered line against the
    CRC computed at staging before applying it, and deliveries carry
    (stream, epoch, seq) stamps so replays and gaps are classified
    instead of applied blindly.

    The store is page-sparse: an index of [capacity / 4096] slots
    ([capacity / 512] bytes) is all [create] allocates.  A page gets its
    4 KiB of bytes and its own 64-line CRC table on the first [write],
    log line or [corrupt_bit] that lands in it, so a node costs host
    memory only for the pages a run writes.  An untouched page reads as
    zeros and has no recorded line.

    A store's bytes change only through [write], [receive_log] and
    [corrupt_bit], and the first two record the CRC of the very bytes
    they store.  So a recorded line can fail its CRC only if
    [corrupt_bit] flipped it since it last matched: each page keeps the
    mask of such lines (two 32-line ints), [corrupt_bit] sets a line's
    bit, and [write] and every line [receive_log] applies clear theirs.
    The checks below CRC only masked lines, so a page with no flipped
    line answers without a CRC and without allocating. *)

type t

exception Crashed of int
(** Raised (with the node id) by every data-path operation on a crashed
    node. *)

exception Fenced of int
(** Raised (with the node id) by the trusted write path on a fenced
    store: a displaced ex-primary must not accept new bytes. *)

val create : id:int -> capacity:int -> t
(** A node of [capacity] bytes, all reading as zeros.  Allocates only
    the page index ([capacity / 512] bytes), whatever the capacity.
    Raises [Invalid_argument] unless [capacity] is a positive multiple
    of 64. *)

val id : t -> int
val capacity : t -> int
val used : t -> int
val free_bytes : t -> int

(** {2 Failure state (§4.5, failure mode 3)}

    A crash is fail-stop: the node's data becomes unreachable, while its
    {e metadata} ([id]/[capacity]/[used]) stays readable — the rack
    controller tracks reservations, and failover needs them to promote a
    mirror. *)

val alive : t -> bool
val crash : t -> unit

(** {2 Fencing (split-brain prevention)}

    When membership declares a node dead and fails over, the displaced
    store is {e fenced} with the new configuration's fencing epoch.  A
    fenced store may still be alive behind a partition — the false-
    positive case — so its data paths reject rather than trust:
    shipments stamped below the fencing epoch (and unstamped ones) are
    dropped whole and counted in [fenced_rejects]; the trusted [write]
    path raises {!Fenced}; any lines a stamped-current shipment does
    land on a fenced store are counted in [post_fence_writes] (the
    no-post-fence-write invariant checks it stays 0). *)

val set_fence : t -> epoch:int -> unit
(** Fence at [epoch]; monotone (a lower epoch never unfences). *)

val fenced : t -> bool
val fenced_rejects : t -> int
(** Stale shipments rejected by the fence — one per delivery attempt. *)

val post_fence_writes : t -> int
(** Lines applied to this store while fenced (should always be 0). *)

val reserve : t -> size:int -> int
(** Carve out a slab-sized region; returns its node-local base offset.
    Raises [Out_of_memory] if the node is full. *)

val adopt_reservations : t -> brk:int -> unit
(** Failover bookkeeping: a promoted mirror (or a fresh replica) inherits
    the crashed primary's reservation high-water mark, so existing slab
    translations stay valid and future [reserve]s do not overlap them.
    Never shrinks. *)

(** {2 Data-path operations (invoked by delivered RDMA verbs)} *)

val write : t -> addr:int -> data:string -> unit
(** Trusted write: stores the bytes and records fresh CRCs for every
    line the write overlaps.  This is also the repair primitive — a
    scrub repair is a [write] of a clean replica's line. *)

val peek : t -> addr:int -> len:int -> string
(** Read the store uninstrumented: the integrity checks' view of remote
    memory.  An untouched page reads as zeros; a crashed node raises
    {!Crashed}. *)

(** {2 Cache-line log receiver} *)

type log_entry = { addr : int; data : string; crcs : int array }
(** [data] is a run of one or more whole cache-lines (length a positive
    multiple of 64, [addr] line-aligned): the log aggregates contiguous
    dirty lines into single entries.  [crcs] holds one CRC32C per line,
    computed at staging time from the sender's heap — the receiver
    verifies the payload against them before applying. *)

val entry : addr:int -> data:string -> log_entry
(** Build an entry, computing its per-line CRCs. *)

type delivery = { stream : int; epoch : int; seq : int }
(** Ordering stamp carried by a CL-log shipment (see
    {!Kona_integrity.Sequencer}). *)

type report = {
  verdict : Kona_integrity.Sequencer.Rx.verdict;
  applied_lines : int;  (** lines verified and scattered to the store *)
  rejected : int list;
      (** line addresses whose payload failed its wire CRC (torn write):
          the store keeps its previous, still-consistent contents *)
  healed : int list;
      (** line addresses that were corrupt at rest (recorded CRC did not
          match the store) and have now been overwritten with verified
          data — an at-rest flip healed before the scrubber saw it *)
}

val receive_log : ?delivery:delivery -> t -> log_entry list -> report
(** Unpack a received CL log.  With a [delivery] stamp the shipment is
    first classified: [Duplicate]/[Stale_epoch] shipments are dropped
    whole (nothing applied); [Ok]/[Gap _] shipments are applied
    line-by-line, each line verified against its wire CRC first.  The
    remote thread's work; cheap (a few reads, CRCs and writes per
    line). *)

val lines_received : t -> int

(** {2 Integrity inspection and fault backdoors} *)

val verify_range : t -> addr:int -> len:int -> int list
(** Line addresses in [addr, addr+len) whose store contents no longer
    match their recorded CRC, ascending.  Works on crashed nodes (an
    offline fsck); never-written lines are skipped.  Only the lines
    [corrupt_bit] flipped since they last matched are CRC'd: the answer
    is the full scan's, and a range with no such line costs no CRC and
    allocates nothing. *)

val corrupt_bit : t -> addr:int -> bit:int -> [ `Fresh | `Already_corrupt ]
(** Fault-injection backdoor: flip bit [bit] (0..511) of the cache line
    at line-aligned [addr].  Returns [`Fresh] when the line verified
    clean beforehand (a new detectable corruption was armed),
    [`Already_corrupt] otherwise; a line no flip has touched since it
    last matched is known clean without a CRC. *)
