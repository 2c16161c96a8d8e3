(** A single set-associative, write-back, write-allocate cache level with
    true-LRU replacement.

    Block granularity is configurable: 64B for CPU cache levels, 4KB (page)
    blocks when the same structure models the KCacheSim DRAM-cache stage
    (the paper's Fig. 8d sweeps this block size).

    The level is one [int] array of slots, [assoc] per set, and each set
    is kept in recency order: the most recent block first, invalid slots
    at the tail, the dirty bit packed into the slot.  A hit moves its slot
    to the front, a miss evicts the set's last slot (an invalid one while
    the set is not full), and {!flush_block} closes the gap it leaves.
    The position is the whole LRU state: there are no timestamps, and no
    lookup, access or flush allocates.

    {!access} walks its set once.  It reads the most recent slot first,
    and a hit there moves nothing; otherwise it carries each slot down
    one place until the pass reaches the block, an invalid slot or the
    end of the set, and puts the block in front.  Sets are indexed by
    [mod], so the number of sets need not be a power of two. *)

type t

val create : name:string -> size:int -> assoc:int -> block:int -> t
(** [size] and [block] in bytes; [assoc] ways.  All three must be positive,
    [block] a power of two, and [size] a multiple of [assoc * block]. *)

val access : t -> addr:int -> write:bool -> bool
(** Look up the block containing byte [addr] and return whether it hit;
    on a miss, allocate it (for both reads and writes: write-allocate),
    evicting the set's least recent block if the set is full.  A write
    marks the block dirty.  The victim stays readable through {!victim}
    and {!victim_dirty} until the next [access]. *)

val victim : t -> int
(** The byte address of the block start the last {!access} evicted, or
    [-1] when it evicted none (a hit, or a miss into a set that was not
    full). *)

val victim_dirty : t -> bool
(** Whether the last {!access}'s victim was dirty; [false] when there was
    none. *)

val probe : t -> addr:int -> bool
(** Presence check without touching LRU state or statistics. *)

val is_dirty : t -> addr:int -> bool

type flushed = Absent | Clean | Dirty  (** The answers of {!flush_block}. *)

val flush_block : t -> addr:int -> flushed
(** Invalidate the block containing [addr] if present, and say what it
    held, so the caller can propagate the writeback.  The set's less
    recent blocks move up one slot; no LRU or statistics effect. *)

val set_dirty : t -> addr:int -> bool
(** Mark the block containing [addr] dirty if resident (no LRU/stat
    effects); returns whether it was resident.  Used by the hierarchy to
    sink an upper level's writeback into this level. *)

val iter_resident : t -> (block_addr:int -> dirty:bool -> unit) -> unit
(** Enumerate resident blocks (tests, snooping sweeps), in an unspecified
    order. *)

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
