(** Fixed-capacity bitsets.

    Used for per-page cache-line footprint masks (64 bits), per-page
    byte-exact write masks (4096 bits) and the rack's per-page sharer sets.
    Backed by an [int array] of 62-bit words for cheap popcount and segment
    scans.  A set that fits one word on every hot path, such as FMem's
    per-frame dirty lines, is kept in plain [int]s instead, with the
    word-level helpers at the end. *)

type t

val create : int -> t
(** [create n] is an all-zeros bitmap of capacity [n] bits. *)

val set : t -> int -> unit
val get : t -> int -> bool

val set_range : t -> int -> int -> unit
(** [set_range t pos len] sets bits [pos .. pos+len-1]. *)

val clear_all : t -> unit

val count : t -> int
(** Number of set bits (popcount). *)

val iter_set : t -> (int -> unit) -> unit
(** Iterate set-bit indices in increasing order. *)

val segments : t -> (int * int) list
(** Maximal runs of consecutive set bits as [(start, length)] pairs in
    increasing order of [start]. *)

val copy : t -> t

(** {2 Masks in one [int]}

    Sets of at most 63 bits kept in a plain [int], such as the 32-line
    half-page masks of FMem frames and the CPU caches' snoop filter. *)

val popcount : int -> int
(** Number of set bits. *)

val lowest_bit : int -> int
(** Index of the lowest set bit; raises [Invalid_argument] on 0. *)
