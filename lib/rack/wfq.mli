(** Per-memory-node ingress scheduler: weighted fair queueing over wire
    time.

    Every RDMA message bound for a node — CL-log shipments, demand
    fetches, replication writes, invalidation recalls — is admitted here
    before it earns a completion.  The scheduler tracks when the node's
    ingress link would drain ([busy_until], in virtual ns): a message
    arriving while the link is still busy is {e contended} and is
    start-time fair queued — each backlogged tenant's next eligible slot
    advances by [wire_ns(bytes) * W / w_t], where [W] sums the weights of
    the currently backlogged tenants — so over any saturated interval
    tenant service rates converge to the ratio of their [bw_share]
    weights.

    The extra queueing shows up as added completion latency: [admit]
    returns the delay the caller must add to the message's completion
    time (the {!Kona_rdma.Qp} arbitration hook), never reordering or
    dropping anything, which keeps every tenant's virtual-time engine
    deterministic. *)

type t

val create : gbps:float -> weights:int array -> t
(** [weights.(i)] is tenant [i]'s bandwidth share (>= 1).  [gbps] is the
    node's ingress link rate in Gbit/s, the basis of wire time.  Raises
    [Invalid_argument] on an empty weight vector, a non-positive weight
    or rate. *)

val admit : t -> tenant:int -> bytes:int -> now:int -> int
(** Admit one [bytes]-sized message from [tenant] arriving at virtual
    time [now]: returns the queueing delay (ns, >= 0) to add to its
    completion, 0 when the link was idle.  A message occupies the link
    for its wire time, [bytes] at the link rate (>= 1 ns when
    non-empty). *)

(** {2 Accounting} *)

type tenant_stats = {
  admits : int;  (** messages admitted *)
  bytes : int;  (** payload bytes admitted *)
  delay_ns : int;  (** total queueing delay imposed *)
  contended_admits : int;
      (** admits that found the link busy with at least one {e other}
          tenant backlogged — the intervals over which fair-share
          bandwidth is defined *)
  contended_bytes : int;  (** bytes admitted under cross-tenant contention *)
  contended_ns : int;
      (** virtual time this tenant's contended traffic occupied of its
          weighted share: [contended_bytes / contended_ns] is the
          tenant's achieved service rate under cross-tenant saturation,
          and the ratio across tenants converges to the weight ratio *)
}

val tenant_stats : t -> tenant:int -> tenant_stats

val total_admits : t -> int
val saturated_admits : t -> int
val peak_backlog_ns : t -> int
(** Largest backlog observed at any admit. *)
