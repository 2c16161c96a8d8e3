(** A simulated RDMA queue pair with one-sided verbs.

    Supports the optimizations the paper evaluates for eviction (§5.1):
    batching + linking (one doorbell for a list of WQEs), unsignaled and
    selective signaling (a CQE every Nth signal-requested WQE), and inline
    data.  Delivery side-effects (actually moving the bytes) are supplied
    by the caller as thunks, so the module stays a pure timing/accounting
    model usable by both the runtime and the microbenchmarks.

    {b Completion-driven delivery.}  [post] never executes delivery
    thunks: a WQE's side-effect fires only once the virtual clock reaches
    the WQE's completion timestamp, when due completions are drained by
    [post], [poll] or [wait_idle].  A reader polling remote state between
    post and completion therefore never observes bytes "from the future".

    {b Windowed flow control.}  With [sq_depth] set, the modeled send
    queue exerts backpressure: posting into a full window advances the
    caller's clock to the oldest in-flight completion until the batch
    fits ([window_stalls]/[window_stall_ns] account for it).

    {b Fault injection and retransmission.}  With an [inject] hook, every
    transmission attempt may be dropped or delayed.  A dropped attempt is
    retransmitted after the retransmission timer with capped exponential
    backoff (RNR-retry semantics); the WQE's completion — and therefore
    its single delivery — moves later by the accumulated backoff, clamped
    monotone so the reliable connection stays in-order.  Exceeding
    [retry_limit] raises {!Retry_exhausted} (the QP's error state). *)

type op = Read | Write

type wqe = {
  op : op;
  len : int;  (** payload bytes *)
  signaled : bool;
  deliver : unit -> unit;  (** executed when the verb completes *)
  node : int option;
      (** destination memory-node logical id, for ingress arbitration *)
}

val wqe :
  ?signaled:bool -> ?deliver:(unit -> unit) -> ?node:int -> op -> len:int -> wqe
(** Defaults: unsignaled, no-op delivery, no destination tag. *)

type retry = {
  rx_timeout_ns : int;  (** Retransmission timer for a lost attempt. *)
  retry_limit : int;  (** Attempts beyond the first before the QP errors. *)
  backoff_cap : int;  (** Backoff doubles at most this many times. *)
}

val default_retry : retry
(** 8 us timer, 7 retries, backoff capped at 16x. *)

val retry_of : Kona_util.Backoff.config -> retry
(** Derive the transport's retransmission parameters from the
    stack-wide backoff policy ([retry_of Backoff.default] equals
    {!default_retry}). *)

exception Retry_exhausted of { attempts : int }
(** A WQE exhausted its retransmission budget: the QP enters the error
    state (callers surface this as a failed operation, not a hang). *)

type t

val create :
  ?cost:Cost.t ->
  ?nic:Nic.t ->
  ?sq_depth:int ->
  ?signal_interval:int ->
  ?inject:(unit -> [ `Drop | `Delay of int ] option) ->
  ?arbitrate:(node:int option -> op:op -> len:int -> now:int -> int) ->
  ?retry:retry ->
  clock:Kona_util.Clock.t ->
  unit ->
  t
(** [clock] is the posting thread's virtual clock; posting charges doorbell
    time to it, while wire time elapses asynchronously.  QPs sharing a
    [nic] contend for wire time.

    [sq_depth] bounds outstanding (posted-but-not-completed) WQEs; [post]
    blocks — advancing the caller's clock — until a slot frees (default:
    unbounded).  [signal_interval] implements selective signaling: of the
    WQEs the caller requests signaled, only every Nth raises a CQE
    (default 1 = every requested one).

    [inject] is consulted once per transmission attempt (so a dropped
    attempt draws again for its retransmission); [retry] tunes the
    retransmission state machine (default {!default_retry}).

    [arbitrate] is consulted once per WQE with its destination [node] tag
    and nominal completion time [now]; a positive return value defers the
    completion by that many ns (rack ingress scheduling: queueing behind
    other tenants' traffic at a contended memory node).  Accounted in
    {!arb_delay_ns}, separate from fault delays. *)

val clock : t -> Kona_util.Clock.t

val post : t -> wqe list -> unit
(** Post one linked batch (one doorbell).  Applies window backpressure,
    stamps every WQE with the batch completion time, and fires any
    already-due delivery thunks from earlier posts.  The new batch's own
    deliveries fire later, when the clock reaches their completion time. *)

val poll : t -> max:int -> int list
(** Drain due completions: fires delivery thunks of WQEs whose completion
    time has passed the posting clock, then reaps up to [max] CQEs,
    returning their completion times (non-blocking; charges
    [Cost.cqe_ns] per reaped CQE). *)

val wait_idle : t -> unit
(** Block (advance the clock) until every posted verb has completed, fire
    all pending deliveries, and drain the CQ.  This is how a synchronous
    caller waits for a fence. *)

val in_flight : t -> int
(** Posted-but-not-completed WQEs relative to the current clock —
    unsignaled WQEs included (posted minus completed). *)

(** {2 Accounting} *)

val payload_bytes : t -> int
val wire_bytes : t -> int
val posts : t -> int
val verbs : t -> int

val signaled : t -> int
(** WQEs that actually carried a CQE (after selective signaling). *)

val completed : t -> int
(** CQEs drained by [poll] or [wait_idle]; [signaled - completed -
    outstanding = 0] always holds. *)

val window_stalls : t -> int
(** Posts that blocked on a full send-queue window. *)

val window_stall_ns : t -> int
(** Total clock time posts spent waiting for a window slot. *)

val outstanding_peak : t -> int
(** Peak send-queue occupancy (WQEs in flight at once). *)

val retransmits : t -> int
(** Transmission attempts lost to injected faults and resent. *)

val fault_delay_ns : t -> int
(** Total completion-time slip from injected drops (backoff waits) and
    delays. *)

val arb_delay_ns : t -> int
(** Total completion-time slip imposed by the [arbitrate] hook (contended
    memory-node ingress queueing). *)
