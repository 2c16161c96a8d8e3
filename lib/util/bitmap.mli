(** Fixed-capacity bitsets.

    Used pervasively: per-page dirty cache-line masks (64 bits), per-page
    byte-exact write masks (4096 bits), FMem frame occupancy, ...  Backed by
    an [int array] of 62-bit words for cheap popcount and segment scans. *)

type t

val create : int -> t
(** [create n] is an all-zeros bitmap of capacity [n] bits. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val get : t -> int -> bool

val set_range : t -> int -> int -> unit
(** [set_range t pos len] sets bits [pos .. pos+len-1]. *)

val clear_all : t -> unit
val is_empty : t -> bool

val count : t -> int
(** Number of set bits (popcount). *)

val iter_set : t -> (int -> unit) -> unit
(** Iterate set-bit indices in increasing order. *)

val segments : t -> (int * int) list
(** Maximal runs of consecutive set bits as [(start, length)] pairs in
    increasing order of [start]. *)

val union_into : dst:t -> src:t -> unit
(** [union_into ~dst ~src] sets every bit of [src] in [dst]; capacities must
    match. *)

val copy : t -> t
