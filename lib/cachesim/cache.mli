(** A single set-associative, write-back, write-allocate cache level with
    true-LRU replacement.

    Block granularity is configurable: 64B for CPU cache levels, 4KB (page)
    blocks when the same structure models Kona's FMem page cache or the
    KCacheSim DRAM-cache stage (the paper's Fig. 8d sweeps this block
    size). *)

type t

val create : name:string -> size:int -> assoc:int -> block:int -> t
(** [size] and [block] in bytes; [assoc] ways.  All three must be positive,
    [block] a power of two, and [size] a multiple of [assoc * block]. *)

type evicted = { block_addr : int; dirty : bool }
(** A victim block: [block_addr] is the byte address of the block start. *)

type outcome =
  | Hit
  | Miss of evicted option
      (** The access missed; the block was filled, evicting the returned
          victim if the set was full. *)

val access : t -> addr:int -> write:bool -> outcome
(** Look up the block containing byte [addr]; on miss, allocate it (for
    both reads and writes: write-allocate).  A write marks the block
    dirty. *)

val probe : t -> addr:int -> bool
(** Presence check without touching LRU state or statistics. *)

val is_dirty : t -> addr:int -> bool

val flush_block : t -> addr:int -> evicted option
(** Invalidate the block containing [addr] if present; returns it (with its
    dirty bit) so the caller can propagate the writeback. *)

val set_dirty : t -> addr:int -> bool
(** Mark the block containing [addr] dirty if resident (no LRU/stat
    effects); returns whether it was resident.  Used by the hierarchy to
    sink an upper level's writeback into this level. *)

val iter_resident : t -> (block_addr:int -> dirty:bool -> unit) -> unit
(** Enumerate resident blocks (tests, snooping sweeps). *)

(** {2 Statistics} *)

type stats = {
  reads : int;
  writes : int;
  read_misses : int;
  write_misses : int;
  evictions : int;
  dirty_evictions : int;
}

val stats : t -> stats
