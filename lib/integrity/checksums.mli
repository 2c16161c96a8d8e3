(** Per-cache-line CRC32C table over a flat byte store.

    A memory node keeps one of these per touched page, alongside that
    page's bytes: every trusted write recomputes the CRCs of the lines it
    touched and marks them {e recorded}; verification only ever considers
    recorded lines, so untouched (never-written) memory is never a false
    positive.

    The table is the software stand-in for the per-line ECC the paper's
    FPGA memory node would provide in hardware. *)

type t

val create : capacity:int -> t
(** [capacity] is the store size in bytes; must be a multiple of the
    cache-line size (64B). All lines start unrecorded. *)

val record : t -> store:Bytes.t -> addr:int -> len:int -> unit
(** Recompute and record the CRCs of every line overlapping
    [addr, addr+len) from the current store contents.  This is the
    trusted-write primitive: callers must only invoke it when the
    store bytes are known-good. *)

val set_line : t -> line:int -> crc:int -> unit
(** Record a precomputed CRC for line index [line] (addr / 64) — used
    when the payload CRC was already verified on the wire, avoiding a
    recompute. *)

val recorded : t -> line:int -> bool

val line_ok : t -> store:Bytes.t -> line:int -> bool
(** [true] when the line is unrecorded or its stored CRC matches the
    store contents. *)

val corrupt_lines : t -> store:Bytes.t -> addr:int -> len:int -> int list
(** Absolute byte addresses (line-aligned, ascending) of recorded lines
    in [addr, addr+len) whose current store contents no longer match
    their recorded CRC. *)

val recorded_count : t -> int
(** Number of recorded lines (for metrics/tests). *)
