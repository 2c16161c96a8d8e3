(** Fixed-quantum windowing of an access stream.

    The paper splits executions into discrete 10-second windows and measures
    behaviour per window (§2.1, §6.3).  Our simulation has no wall clock, so
    a window is a fixed number of accesses (the quantum); the mapping is
    recorded in EXPERIMENTS.md. *)

type t

val create : quantum:int -> inner:Access.sink -> on_boundary:(window:int -> unit) -> t
(** [create ~quantum ~inner ~on_boundary] forwards every access to [inner];
    after each [quantum] accesses it calls [on_boundary ~window] with the
    0-based index of the window that just closed.  [quantum] must be
    positive. *)

val sink : t -> Access.sink

val flush : t -> unit
(** Close the current (possibly partial) window, if it contains at least one
    access.  Call once at end of workload. *)

