(** RDMA NIC cost model, calibrated against the paper's testbed (Mellanox
    ConnectX-5, 100 Gbps RoCE): a 4KB one-sided read/write completes in
    about 3 us, small verbs in about 2.9 us, and batching/linking amortizes
    the per-operation software+doorbell overhead (§5.1).  The same model
    also prices local memcpy into RDMA-registered buffers (the "Copy"
    share of Fig. 11c) and bitmap scans. *)

type t = {
  base_ns : float;  (** one-sided verb end-to-end latency floor *)
  doorbell_ns : float;  (** per-post (per-doorbell) software + MMIO cost *)
  wqe_ns : float;  (** marginal cost of each linked WQE in a batch *)
  byte_ns : float;  (** wire transfer per payload byte (line rate) *)
  header_bytes : int;  (** per-WQE wire overhead (headers/CRC) *)
  memcpy_base_ns : float;  (** fixed cost of a local copy call *)
  memcpy_byte_ns : float;  (** per-byte cost of copying into an RDMA buffer *)
  bitmap_line_ns : float;  (** per-cache-line cost of scanning a dirty bitmap *)
  ack_ns : float;  (** remote log-receiver acknowledgment latency *)
  cqe_ns : float;
      (** cost of reaping one completion-queue entry — the overhead
          selective signaling (a CQE every Nth WQE) amortizes *)
}

val default : t

val batch_ns : t -> sizes:int list -> int
(** Completion time of one posted batch (one doorbell, linked WQEs, shared
    latency floor, pipelined payloads). *)

val wire_bytes : t -> wqes:int -> payload:int -> int
(** Bytes on the wire of [wqes] WQEs carrying [payload] bytes between
    them, per-WQE headers included. *)

val linked_ns : t -> wqes:int -> wire_bytes:int -> int
(** {!batch_ns} of a non-empty batch of [wqes] WQEs with [wire_bytes]
    bytes on the wire: a poster that has counted its batch need not list
    its sizes. *)

val memcpy_ns : t -> bytes:int -> int
val bitmap_scan_ns : t -> lines:int -> int
