(** Deterministic fault injector: executes a {!Fault_spec} plan.

    Probabilistic decisions (WQE loss/delay, RPC timeouts) are drawn from
    independent seeded splitmix streams, one per decision point, so the
    same seed and plan reproduce the same faults regardless of how the
    surrounding simulation interleaves its draws.  Scheduled faults (node
    crashes) are virtual-clock triggered: the runtime polls
    [due_node_crashes] as its clocks advance.  Link flaps are returned
    once, at wiring time, for the NIC's outage calendar.

    The injector is pure decision-making plus counters; the components it
    hooks into (QP retransmission, RPC retry, node crash state, failover)
    own the recovery machinery. *)

type t

val create : seed:int -> plan:Fault_spec.t -> t

val arm : t -> Fault_spec.clause -> unit
(** Arm one more clause mid-run.  Probabilistic kinds combine with any
    already-armed probability as independent events (same rule as
    [create]); [Node_crash] is inserted into the pending-crash calendar.
    [Link_flap] only bumps the injected counter — installing the outage
    window on the NIC is the caller's job, since flap wiring happens via
    {!link_flaps} exactly once at create.  The decision streams are
    carved off at [create] independent of the plan, so arming never
    perturbs draws already made. *)

(** {2 Hooks} *)

val qp_inject : t -> unit -> [ `Drop | `Delay of int ] option
(** Per-WQE-transmission-attempt decision for {!Kona_rdma.Qp}; [None] means
    the attempt goes through clean.  Counts every injected fault. *)

val rpc_timeout : t -> unit -> bool
(** Per-RPC-attempt decision for {!Kona_rdma.Rpc}. *)

type delivery_fault = {
  torn : (int * int) option;
      (** Corrupt one copy's shipment in flight: [(target, entry)] raw
          picks; the CL log reduces them modulo copy/entry counts and
          tears the chosen entry's tail lines on that one copy. *)
  flip : (int * int * int * int) option;
      (** Flip one bit at rest after apply: [(target, entry, line, bit)]
          raw picks ([bit] < 512, a bit offset within a 64B line). *)
  dup : bool;
      (** Redeliver this shipment to the primary at the next flush. *)
}

val delivery_inject : t -> targets:int -> delivery_fault option
(** Per-CL-log-shipment decision ([targets] = number of copies the
    shipment fans out to: primary + live mirrors).  At most one copy is
    tampered per category per shipment, so a clean replica always
    exists for repair when replicas are configured.  No draws happen
    when no corruption clause is armed. *)

val read_inject : t -> unit -> bool
(** Per-verified-demand-fetch decision: [true] means this fetch
    observes a stale image and must be detected and retried.  Only
    consulted (and only draws) when checksum verification is on. *)

val stale_reads_armed : t -> bool

val link_flaps : t -> (int * int) list
(** [(at_ns, dur_ns)] outage windows to install on the NIC.  Calling this
    counts the flaps as injected (call it once, when wiring). *)

val due_node_crashes : t -> now:int -> int list
(** Node ids whose crash time has been reached; each id is returned once.
    O(1) when nothing is pending.  A due crash is counted when its runtime
    handles it ({!count_crash}), not here. *)

val count_crash : t -> unit
(** Count one node crash the runtime handled, whether a plan clause came
    due or a scenario op crashed the node directly: the one crash count,
    [node_crashes] in {!counters}. *)

val crashes_pending : t -> int

val due_partitions : t -> now:int -> (int * int list) list
(** [(dur_ns, ids)] partitions whose start time has been reached; each is
    returned once.  The caller (the runtime) owns the partition windows —
    deferring deliveries, blocking heartbeats — like the NIC owns flap
    outages. *)

val partitions_pending : t -> int

(** {2 Accounting} *)

val injected : t -> int
(** Total faults injected across every category. *)

val counters : t -> (string * int) list
(** [(category, count)] pairs: node_crashes, link_flaps, rpc_timeouts,
    wqe_drops, wqe_delays, bit_flips, torn_writes, stale_reads,
    dup_delivers, partitions. *)
