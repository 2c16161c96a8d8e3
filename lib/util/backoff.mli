(** Unified retry/backoff policy for every resending layer (QP
    retransmission, RPC timeout/resend): [Kona_rdma.Qp.create] and
    [Kona_rdma.Rpc.create] take this type itself, and an RPC channel
    hands it on to the queue pair its SENDs ride.  One config threads
    from the CLI through the runtimes; per-layer bases stay separate but
    the retry budgets and backoff shape are set in one place. *)

type config = {
  base_ns : int;  (** QP retransmission timer / first backoff step *)
  qp_retry_max : int;  (** transmissions before [Qp.Retry_exhausted] *)
  rpc_retry_max : int;  (** resends before [Rpc.Timeout_exhausted] *)
  cap_shift : int;  (** backoff doubling capped at [2^cap_shift] *)
}

val default : config
(** [{ base_ns = 8_000; qp_retry_max = 7; rpc_retry_max = 5; cap_shift = 4 }] —
    bit-identical to the previously hardcoded per-layer values. *)

val with_retry_max : config -> int -> config
(** Override both layers' retry budgets at once ([--retry-max]). *)

val with_base_ns : config -> int -> config
(** Override the first backoff step ([--backoff-base-ns]). *)
