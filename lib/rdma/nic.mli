(** A shared NIC: the serialization point between queue pairs of the same
    adapter.  Threads (and the background eviction path) own separate QPs,
    but wire time on one port is exclusive — this is what erodes Kona's
    speedup as thread counts grow (paper Fig. 7: 6.6x at one thread,
    4-5x at 2-4). *)

type t

val create : unit -> t

val occupy : t -> start:int -> duration:int -> int
(** Reserve the wire: returns the actual start time (>= [start], after any
    earlier occupancy and outside any injected outage) and records the port
    busy until start + duration. *)

(** {2 Failure injection (§4.5, failure mode 2)}

    An outage stalls all traffic for its duration: transfers that would
    start inside the window begin when it lifts.  Kona detects the
    resulting coherence-protocol timeout as a machine-check exception (see
    {!Kona.Caching_handler}). *)

val inject_outage : t -> at:int -> duration:int -> unit
val outage_total : t -> int
(** Total injected outage time (diagnostics). *)

(** {2 Telemetry counters} *)

val ops : t -> int
(** Wire occupations granted. *)

val busy_ns : t -> int
(** Total serialization time the port spent occupied. *)

val stall_ns : t -> int
(** Total time occupations waited behind earlier traffic or outages — the
    port-contention cost that erodes multi-QP speedup (Fig. 7). *)
