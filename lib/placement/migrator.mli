(** Background page migrator.

    Once per virtual-clock epoch the migrator snapshots the rack (node
    free space, the page view), asks the policy for a plan, flushes the
    tenants' CL logs (staged entries carry pre-move addresses), and
    executes the moves.  Every executed move is charged through the
    source and destination nodes' WFQ schedulers so migration traffic
    visibly contends with tenant traffic.

    The migrator is mechanism only — it owns no rack state.  The host
    (lib/rack) supplies everything through the [env] closures, which
    keeps this library free of dependencies on the core runtime. *)

type env = {
  nodes : unit -> Placement_policy.node_info list;
      (** Live rack topology snapshot. *)
  pages : now:int -> Placement_policy.view;
      (** The epoch's page view: the pages with nonzero heat settled to
          [now], and every migratable page on demand. *)
  flush_logs : unit -> unit;
      (** Flush all tenants' CL logs.  Must run before any remap:
          staged log entries resolve (node, raddr) at append time. *)
  move_page : Placement_policy.move -> int option;
      (** Copy the page (and its replicas) to the destination and remap
          every translation that pointed at it.  Returns the source
          node id on success, [None] if the move was skipped (source
          unreadable, destination full, page already there). *)
  charge : node:int -> bytes:int -> now:int -> int;
      (** Admit migration traffic on [node]'s WFQ; returns the queueing
          delay in ns. *)
}

type t

val create :
  policy:Placement_policy.t ->
  epoch_ns:int ->
  budget:int ->
  page_bytes:int ->
  env ->
  t
(** [budget] is the maximum number of page moves per epoch.  Raises
    [Invalid_argument] on non-positive [epoch_ns], [budget] or
    [page_bytes]. *)

val tick : t -> now:int -> unit
(** Run at most one migration epoch if [now] has crossed an epoch
    boundary since the last run; otherwise a no-op.  Call it from the
    simulation's replay loop. *)

val force : t -> now:int -> unit
(** Run one migration epoch immediately, regardless of epoch boundaries
    (scenario-engine [migrate-epoch] op).  Consumes the current boundary
    so a following [tick] in the same epoch stays a no-op. *)

val migrations : t -> int
(** Pages successfully moved. *)

val bytes_moved : t -> int
val failed : t -> int
(** Planned moves that [env.move_page] declined. *)

val charged_ns : t -> int
(** Total WFQ queueing delay absorbed by migration traffic. *)
