(** Bounded ring buffer that keeps the newest elements.

    The telemetry tracer's keep-latest event ring is built on it. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val length : 'a t -> int

val force_push : 'a t -> 'a -> 'a option
(** [force_push t x] enqueues [x], displacing (and returning) the oldest
    element when full — the newest element is never lost. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Iterate oldest-to-newest without consuming. *)
