(** A growable array with amortized O(1) append and O(1) random access.

    The stdlib gains [Dynarray] only in OCaml 5.2; this is the small subset
    the simulator needs (the rack controller's node table, chiefly), kept
    API-compatible with the stdlib module so it can be dropped once the
    compiler floor moves. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val add_last : 'a t -> 'a -> unit
(** Append; amortized O(1). *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
