(** Virtual simulation clock.

    All latency accounting in the simulator advances a [Clock.t] by integer
    nanoseconds; no wall-clock time is ever involved, so runs are
    deterministic and independent of host speed. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val advance : t -> int -> unit
(** [advance t ns] moves time forward; [ns] must be non-negative. *)

val advance_to : t -> int -> unit
(** [advance_to t ns] sets the clock to [max (now t) ns]. *)

val reset : t -> unit
