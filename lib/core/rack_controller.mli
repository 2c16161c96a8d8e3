(** The rack controller: a (logically centralized, §4.1) allocator that
    memory nodes register with and from which compute nodes obtain slabs.
    Off the application's critical path — the resource manager calls it in
    batches.

    The controller is the one owner of which stores hold a node's data.
    It separates a node's {e logical id} (what slabs record) from the
    store backing it, and each logical slot holds three kinds of store:
    its {e backing}, its {e mirrors} (replicas written by every CL-log
    shipment, §4.5) and its {e former backings} (stores a failover
    displaced).  A failover {!promote}s a mirror into the backing and
    every existing translation keeps working.  The controller also holds
    the rack-global fencing epoch that every CL-log sender sharing it
    stamps on its shipments. *)

exception
  Quota_exceeded of { tenant : string; quota : int; used : int; requested : int }
(** Admission control rejected an allocation: [tenant] already holds
    [used] bytes against a cap of [quota]; granting [requested] more would
    exceed it.  Nothing is charged on rejection. *)

type t

val create : ?slab_size:int -> unit -> t
(** Default slab size 1 MiB (the paper uses large slabs; scaled with our
    workloads). *)

val slab_size : t -> int

val register_node : t -> Memory_node.t -> unit
(** Add a slot backed by the node, under the node's id.  On a replicated
    controller the slot gets {!replicas} fresh mirrors at once, so a node
    added mid-run is as replicated as the first ones.  Raises
    [Invalid_argument] if the node's id is already registered, or was
    minted for a replica backing store by {!mint_backing_id} (the two id
    spaces must never alias a store). *)

val mint_backing_id : t -> int
(** Allocate a physical id for a replica/mirror backing store.  Ids are
    handed out from 1000 upward, skipping every registered logical id,
    and each minted id is remembered: {!register_node} refuses it
    afterwards, so rack-op node adds and re-replication can never mint
    colliding ids regardless of order. *)

val nodes : t -> Memory_node.t list
(** Current backings, in registration order. *)

val node : t -> id:int -> Memory_node.t
(** The store currently backing logical node [id].  Raises
    [Invalid_argument] naming the id when it is unknown. *)

val replace_node : t -> id:int -> node:Memory_node.t -> unit
(** Failover: make [node] the backing of logical id [id] (the promoted
    mirror takes over the crashed primary's identity).  The displaced
    store is remembered in the slot's former-backing list (see
    {!former_backings}).  Raises [Invalid_argument] for unknown ids. *)

val former_backings : t -> id:int -> Memory_node.t list
(** Stores that previously backed logical node [id], newest first.  A
    falsely-declared-dead predecessor may still be live behind a
    partition; fencing and the at-most-one-primary invariant inspect
    this list. *)

val logical_ids : t -> int list
(** Registered logical node ids, in registration order. *)

val find_physical : t -> id:int -> Memory_node.t option
(** The store with physical id [id], whether it currently backs a slot or
    was displaced by a failover (former backing).  Membership leases and
    fencing follow the store, not the slot. *)

val logical_backed_by : t -> physical:int -> int option
(** The logical slot the store with physical id [physical] currently
    backs, if any ([None] for formers, mirrors and unknown ids). *)

val all_physical : t -> Memory_node.t list
(** Every store the controller knows of: current backings and former
    (displaced) backings, in registration order, formers newest first —
    the fencing counters are summed over this list. *)

(** {2 Mirrors and promotion (§4.5)}

    Kona replicates during eviction: each CL-log shipment to a logical
    node is posted to its backing and to all of its mirrors in one
    linked batch.  Mirrors are dedicated stores that hold data at the
    backing's offsets; they are never allocation targets, and their
    physical ids come from {!mint_backing_id}. *)

val replicate : t -> degree:int -> unit
(** Give every registered slot [degree] mirrors, each as large as the
    slot's backing, minted slot by slot in registration order.  Does
    nothing at the controller's current degree; raises
    [Invalid_argument] for a negative degree, or for a different one
    once the controller is replicated. *)

val replicas : t -> int
(** The replication degree: 0 until {!replicate}. *)

val mirrors : t -> id:int -> Memory_node.t list
(** Logical node [id]'s mirrors, live or crashed, never its backing;
    [[]] for an unknown id. *)

val live_copies : t -> id:int -> Memory_node.t list
(** Every live copy of logical node [id]'s data: the backing when it is
    alive, then the live mirrors; [[]] for an unknown id.  Any copy
    whose line verifies clean can repair, or be moved from, the others. *)

val promote : t -> id:int -> Memory_node.t option
(** The backing of logical node [id] crashed: make its first live mirror
    the backing (it inherits the crashed store's reservation mark, and
    the crashed store joins {!former_backings}) and return it.  The
    promoted store and any crashed mirror leave the mirror set;
    restoring the degree is the caller's re-replication ({!add_mirror}).
    [None] when no live mirror exists: the data is lost and the caller
    reports degradation.  Raises [Invalid_argument] for unknown ids. *)

val add_mirror : t -> id:int -> Memory_node.t -> unit
(** Append a (re-replicated) mirror to logical node [id]. *)

val remove_mirror : t -> id:int -> physical:int -> unit
(** Detach the mirror with physical id [physical] from logical node
    [id].  Scraps a half-cloned mirror whose re-replication source died
    mid-copy: an incomplete copy must never become promotable. *)

val crash_mirror : t -> physical:int -> int option
(** If [physical] names a mirror, fail-stop it, drop it from its slot
    and return the logical id that lost a replica; [None] otherwise. *)

val failovers : t -> int
(** Promotions performed. *)

val lines_replicated : t -> int
(** Cache-lines received by the current mirrors. *)

val divergent_mirrors : t -> int
(** Live mirrors whose reserved range differs from their live backing's:
    0 means every replica is byte-identical.  Crashed mirrors are lost,
    not divergent; the mirrors of a crashed, not yet promoted backing
    have nothing to be checked against and are skipped. *)

(** {2 Fencing} *)

val bump_fencing_epoch : t -> int
(** Advance the rack-global fencing epoch (monotone) and return the new
    value.  Called once per membership-triggered failover; the new epoch
    fences the displaced store, and every CL-log sender sharing this
    controller stamps it from its next shipment on. *)

val fencing_epoch : t -> int
(** Current rack-global fencing epoch (0 until the first failover). *)

val set_draining : t -> id:int -> bool -> unit
(** Mark/unmark logical node [id] as draining: it keeps serving its
    existing slabs but receives no new allocations.  The slot stays
    registered after the drain completes, so logical ids (and anything
    indexed by them) remain stable.  Raises [Invalid_argument] for
    unknown ids. *)

val draining : t -> id:int -> bool

val set_placement :
  t -> (vaddr:int -> tenant:string option -> int option) -> unit
(** Install a placement hook consulted before the round-robin on every
    slab allocation.  Returning [Some id] steers the slab to that node
    if it is live, not draining, and has room; [None] (or an unusable
    choice) falls back to the round-robin.  Quota admission happens
    before the hook either way. *)

val free_bytes : t -> id:int -> int
(** Free bytes on the store currently backing logical node [id].  Raises
    [Invalid_argument] for unknown ids. *)

val used_bytes : t -> id:int -> int
(** Bytes reserved on the store currently backing logical node [id]. *)

val set_quota : t -> tenant:string -> bytes:int -> unit
(** Cap [tenant]'s total slab allocation at [bytes] (rounded up only by
    slab granularity — a slab is admitted iff it fits entirely).  Replaces
    any previous cap.  Raises [Invalid_argument] on a negative cap. *)

val quota : t -> tenant:string -> int option
val tenant_used : t -> tenant:string -> int
(** Bytes of slabs granted to [tenant] so far (0 for unknown tenants). *)

val allocate_slab : ?tenant:string -> t -> vaddr:int -> Slab.t
(** Allocate one slab backing the VFMem range starting at [vaddr],
    round-robin across registered nodes (skipping full or crashed ones).
    Raises [Out_of_memory] when no live node has room.  With [tenant] set,
    the allocation is charged against that tenant's quota and raises
    {!Quota_exceeded} — before reserving anything — once the cap would be
    crossed. *)

val slabs_allocated : t -> int
