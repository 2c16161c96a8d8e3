(** Instrumented heap: a byte arena whose every load and store emits an
    {!Kona_trace.Access.t} event.

    This replaces Intel Pin binary instrumentation from the paper: the
    workloads are real programs whose data structures live in this arena, so
    the emitted stream has the genuine spatial/temporal structure of the
    algorithms (hash-chain walks, CSR scans, column appends, ...) while
    remaining observable.  Addresses start at one page (so 0 never aliases a
    live object) and are stable for the lifetime of the heap. *)

type t

val create : ?capacity:int -> sink:Kona_trace.Access.sink -> unit -> t
(** Default capacity 64 MiB. *)

val capacity : t -> int

val used : t -> int
(** High-water mark of allocated bytes (brk - base). *)

val set_sink : t -> Kona_trace.Access.sink -> unit
(** Swap the consumer; used to splice analyses in and out around phases. *)

val alloc : t -> ?align:int -> int -> int
(** Allocate [n] bytes ([n > 0]), default 8-byte aligned.  Reuses freed
    blocks of the exact same size.  Raises [Out_of_memory] when the arena is
    exhausted. *)

val free : t -> addr:int -> len:int -> unit
(** Return a block to the (size-segregated) free list. *)

(** {2 Instrumented accessors}

    Each call performs the real memory operation on the backing store and
    emits exactly one access event covering the touched byte range. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int
val write_u64 : t -> int -> int -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_bytes : t -> int -> int -> string
val write_string : t -> int -> string -> unit

val memcmp : t -> int -> string -> bool
(** [memcmp t addr s] reads [String.length s] bytes at [addr] (one event)
    and compares with [s]. *)

(** {2 Uninstrumented debug access (no events; for tests and integrity
    checks only)} *)

val peek_u64 : t -> int -> int
val peek_bytes : t -> int -> int -> string
val snapshot : t -> Bytes.t
(** Copy of the full backing store. *)

(** {2 Uninstrumented initialization}

    For data that the real application obtains without writing it — e.g. an
    input file mapped read-only into memory (the Metis workloads stream
    mmap'd datasets).  Populates the backing store without emitting write
    events; subsequent instrumented reads of the data are observed
    normally. *)

val poke_u64 : t -> int -> int -> unit
val poke_f64 : t -> int -> float -> unit

val page_poked : t -> page:int -> bool
(** Whether any byte of 4KB page index [page] was populated by a poke.
    Such pages model file-backed (mmap'd) input: they are clean from the
    remote-memory system's point of view and are excluded from
    remote-equals-heap integrity checks. *)

val restore_page : t -> addr:int -> data:string -> unit
(** Uninstrumented whole-page blit: recovery of a crashed host's heap image
    from disaggregated memory (failure mode 1, §4.5).  [data] must be
    page-sized and [addr] page-aligned. *)
