(** Redis-like in-memory key-value store (paper workload: "Redis").

    A chaining hash table whose buckets, entry headers, keys and values all
    live in the instrumented heap, so a SET/GET touches memory exactly the
    way a data-structure server does: bucket probe, chain walk with key
    compares, then an in-place value overwrite or a fresh allocation.

    The two paper workloads are reproduced by the driver: {e Rand} issues
    operations over uniformly random keys (high dirty amplification — small
    writes scattered over many pages) and {e Seq} issues them in ascending
    key order (low amplification — consecutive values are adjacent in the
    arena thanks to the bump allocator). *)

type t

val create : Heap.t -> nbuckets:int -> t
(** [nbuckets] must be a power of two. *)

val attach : Heap.t -> nbuckets:int -> table:int -> entries:int -> t
(** Re-attach to a table that already lives in (possibly recovered) memory
    — the root-pointer handoff a server performs after restarting on
    disaggregated memory.  [table] is the bucket-array address returned by
    the original [create] ({!table_addr}); no initialization is
    performed. *)

val table_addr : t -> int
(** The bucket array's address (the store's root pointer). *)

val set : t -> string -> string -> unit
val get : t -> string -> string option

val entries : t -> int

type pattern =
  | Rand  (** uniform over the key space *)
  | Seq  (** ascending sweep *)
  | Zipf of float  (** skewed toward hot keys, theta in (0,1) — memtier's
                       gaussian/zipf-style option *)

type driver_result = {
  sets : int;
  gets : int;
  hits : int;  (** GETs that found their key *)
}

val run_driver :
  t ->
  rng:Kona_util.Rng.t ->
  pattern:pattern ->
  keys:int ->
  ops:int ->
  value_len:int ->
  set_ratio:float ->
  driver_result
(** Load phase (SET every key once, in pattern order) followed by [ops]
    mixed operations: each op is a SET with probability [set_ratio], else a
    GET.  Rand draws keys uniformly; Seq sweeps them in ascending order;
    Zipf concentrates on hot keys. *)

val key_of_int : int -> string
(** The canonical 16-byte key encoding used by the driver; exposed for
    tests. *)
