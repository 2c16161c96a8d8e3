(** Two-sided messaging on top of the queue-pair model: the control path.

    Kona's data path is one-sided (reads, writes, the CL log), but control
    operations — a compute node asking the rack controller for slabs, a
    memory node registering its capacity — are request/response exchanges
    (§4.1).  This module prices those exchanges: a call costs a request
    SEND, the callee's service time, and a response SEND, charged to the
    caller's clock (control-path operations are synchronous but rare and
    batched). *)

type t

exception Timeout_exhausted of { attempts : int }
(** Every retry of a call timed out: the control-plane peer is
    unreachable. *)

val create :
  ?cost:Cost.t ->
  ?service_ns:int ->
  ?backoff:Kona_util.Backoff.config ->
  ?fail:(unit -> bool) ->
  ?inject:(unit -> [ `Drop | `Delay of int ] option) ->
  clock:Kona_util.Clock.t ->
  nic:Nic.t ->
  unit ->
  t
(** An RPC channel clocked by the caller.  [service_ns] models the callee's
    handling time per call (default 1.5 us: a controller allocation or
    registration handler).

    [fail] is the fault-injection hook, consulted once per attempt: [true]
    loses the exchange, costing a fixed 10 us timeout (doubling per
    consecutive loss, capped at [2^cap_shift]) before a resend, up to
    [rpc_retry_max] resends and then {!Timeout_exhausted}.  The retry
    budget and backoff cap come from [backoff] (default
    {!Kona_util.Backoff.default}: 5 resends, cap 16x).

    [inject] and [backoff] are forwarded to the channel's internal queue
    pair, so wqe-drop/wqe-delay plans also stress the control path's
    SENDs, and they retransmit under the same policy as the data queue
    pairs ([base_ns], [qp_retry_max], [cap_shift]). *)

val call : t -> request_bytes:int -> response_bytes:int -> ('a -> 'b) -> 'a -> 'b
(** Execute [f] as the remote handler: charges request wire + service +
    response wire to the caller's clock and returns [f]'s result.  Under
    injected timeouts the exchange is retried; [f] runs exactly once, on
    the successful attempt.

    Failure surfacing: a {e request-send} failure (the message never
    reached the peer, e.g. {!Qp.Retry_exhausted}) is retried with the
    same backoff, and when retries run out the underlying exception is
    re-raised — not masked as {!Timeout_exhausted}.  An exception from
    the {e handler} (or the response send) propagates immediately: the
    handler has already executed, so retrying would break exactly-once,
    and the caller must see the real error. *)

val calls : t -> int
val total_ns : t -> int
(** Cumulative time spent in [call] (wire + service + timeout waits). *)

val timeouts : t -> int
(** Attempts lost to injected timeouts. *)

val retries : t -> int
(** Resends after a timeout (= [timeouts] minus exhausted failures). *)
