(** FMem: the FPGA-attached DRAM used as a page cache for VFMem (§4.3-4.4).

    Designed exactly as the paper specifies local translation: a 4-way
    set-associative cache whose block size equals the page size, caching
    whole pages so applications keep spatial locality, while the CPU's own
    caches provide temporal locality.  Each frame carries a 64-bit dirty
    cache-line bitmap — the hardware primitive (track-local-data) that
    enables cache-line granularity eviction. *)

type t

type policy =
  | Lru  (** least recently used within the set (the paper's choice) *)
  | Fifo  (** oldest insertion within the set *)
  | Random of int  (** uniform over the set, seeded *)

val create : ?assoc:int -> ?policy:policy -> pages:int -> unit -> t
(** Capacity of [pages] frames (must be a positive multiple of [assoc],
    default associativity 4, default policy [Lru]). *)

val resident : t -> int

type victim = {
  vpage : int;  (** VFMem page index being evicted *)
  dirty_lines : Kona_util.Bitmap.t;  (** its dirty-line mask at eviction *)
}

val lookup : t -> vpage:int -> bool
(** Hit test; refreshes LRU state on hit. *)

val insert : t -> vpage:int -> victim option
(** Cache [vpage], evicting the set's LRU frame if full.  The caller (the
    eviction handler) owns the victim's writeback.  Inserting a resident
    page is a no-op returning [None]. *)

val mark_dirty : t -> vpage:int -> line:int -> bool
(** Record a dirty cache-line writeback observed by the directory; [line]
    in [0, 63].  Returns [false] if the page is not resident (the writeback
    raced with an eviction — caller must handle it). *)

val dirty_lines : t -> vpage:int -> Kona_util.Bitmap.t option
(** Copy of the resident page's dirty mask. *)

val clear_dirty : t -> vpage:int -> unit

val evict : t -> vpage:int -> victim option
(** Force out a specific resident page. *)

val victim_candidate : t -> vpage:int -> int option
(** Which page the set containing [vpage] would evict next (LRU), if the
    set is full. *)

val iter_resident : t -> (vpage:int -> dirty:int -> unit) -> unit
(** [dirty] is the number of dirty lines in the frame. *)

(** {2 Telemetry counters}

    Probe-level accounting, kept per set so organization skew (hot sets
    thrashing while others idle) is observable.  A "probe" is any [lookup];
    note the runtime probes more than once per demand access, so these are
    deliberately distinct from the caching handler's demand hit/miss
    counters. *)

val nsets : t -> int

val probe_hits : t -> int
val probe_misses : t -> int

val evictions : t -> int
(** Frames displaced by [insert] plus forced [evict]s. *)

val set_counters : t -> set:int -> int * int * int
(** [(hits, misses, evictions)] for one set. *)
