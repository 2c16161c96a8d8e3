(** Bounded FIFO ring buffer.

    The CL-log eviction path (§4.4 of the paper, "a software log based on a
    ring buffer design similar to FaRM") and the RDMA completion queues are
    built on this. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val length : 'a t -> int

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x]; returns [false] (and does nothing) if full. *)

val force_push : 'a t -> 'a -> 'a option
(** [force_push t x] enqueues [x], displacing (and returning) the oldest
    element when full — the newest element is never lost.  Used by the
    telemetry tracer's keep-latest ring. *)

val pop : 'a t -> 'a option
val peek : 'a t -> 'a option

val pop_n : 'a t -> int -> 'a list
(** Pop up to [n] elements, oldest first. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Iterate oldest-to-newest without consuming. *)

val clear : 'a t -> unit
