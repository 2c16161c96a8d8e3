(** The VFMem coherence directory maintained by the FPGA memory agent
    (§4.3): tracks, per cache-line, what the interconnect protocol lets the
    agent know about the CPU's copy.

    The protocol view is deliberately the weak one the paper's design
    depends on: a fill tells the agent the CPU {e has} the line (and
    whether it was requested for writing), a writeback tells it the line
    was modified and has left the CPU, and a snoop forcibly recalls it.
    The agent learns nothing when a shared line is silently dropped — which
    is why eviction must snoop rather than trust the directory
    (§4.4, "Snooping is necessary").

    When the directory mediates a rack-level shared segment the same table
    doubles as a full per-line MSI home directory over multiple writers:
    [acquire] is the home side of {!Protocol.on_processor} — a write miss
    is an RFO that recalls the current owner's (possibly dirty) copy and
    invalidates every other sharer; a read miss on a Modified line forces a
    dirty downgrade.  Because the home always answers read misses with a
    Shared grant, the Exclusive state of the per-agent MESI reference is
    unreachable here and the directory is exactly the home-side projection
    of {!Protocol} onto MSI (checked by the qcheck property in
    [test_coherence]).

    Its users are the rack's: the shared-segment sharer directory
    ([on_fill ~sharer], [snoop_sharers]) and the multi-writer MSI home
    ([acquire]).  The single-tenant runtime keeps no instance, since
    nothing there reads per-line state; it counts LLC fills and
    writebacks as [hierarchy.memory_accesses] and [hierarchy.writebacks],
    and snooped dirty lines as [evict.snooped_lines]. *)

type state =
  | Invalid  (** not at the CPU, as far as the agent knows *)
  | Shared  (** granted for reading; CPU may silently drop it *)
  | Modified  (** granted for writing; CPU may hold newer data *)

type t

type grant = {
  g_peer : int option;
      (** previous exclusive owner whose copy had to be recalled; [None] on
          a hit, a fresh grant, or when the requester already owned it *)
  g_peer_dirty : bool;
      (** the recalled copy was writable, so the recall response carries
          data (writer handoff / dirty downgrade) *)
  g_invalidated : int list;
      (** sharers whose read-only copies died for this RFO, ascending; the
          requester itself is never listed *)
}
(** What the home had to do to satisfy an [acquire]: the caller charges one
    recall message (plus a data transfer when dirty) per peer listed. *)

val create : unit -> t

val state : t -> line:int -> state
(** [line] is a global cache-line index (byte address / 64). *)

val acquire : t -> line:int -> tenant:int -> write:bool -> grant
(** Tenant [tenant] requests [line].  Read misses are granted Shared;
    a read of another tenant's Modified line recalls the owner's dirty
    copy and downgrades both to Shared.  [write:true] is an RFO: the
    requester becomes the single owner, the previous owner (if any) is
    recalled as [g_peer] with [g_peer_dirty = true] (a writer handoff),
    and every other sharer appears in [g_invalidated].  Hits (requester
    already holds sufficient permission) return {!no_grant}-shaped values
    and charge nothing. *)

val owner : t -> line:int -> int option
(** The single tenant holding [line] in Modified, if any. *)

val audit : t -> string list
(** Internal MSI consistency check, sorted: an owned line must be Modified
    with no other tracked copy; a Shared line must have no owner; owner
    entries must not outlive their grant.  Empty = coherent. *)

val on_fill : ?sharer:int -> t -> line:int -> write:bool -> unit
(** The CPU requested the line from VFMem.  When the directory mediates a
    rack-level shared segment, [sharer] identifies which tenant took the
    copy; the set of sharers per line is tracked so a writer's eviction can
    recall every remote reader ([snoop_sharers]). *)

val on_writeback : t -> line:int -> unit
(** A modified line reached the agent; the CPU no longer holds it. *)

val snoop : t -> line:int -> [ `Clean | `Dirty ]
(** Recall the line: afterwards it is [Invalid].  [`Dirty] if the agent had
    granted write permission (the CPU's copy may contain new data that the
    snoop response carries). *)

val sharers : t -> line:int -> int list
(** Tenants currently holding a tracked copy of [line], sorted ascending.
    Non-destructive. *)

val snoop_sharers : t -> line:int -> int list
(** Recall the line from every tracked sharer: returns the sorted sharer
    list, then forgets both the line state and its sharers.  Counts one
    snoop (and one invalidation) per recalled sharer, so invalidating a
    wide reader set is charged proportionally. *)

val granted_lines : t -> int
(** Lines currently believed to be at the CPU. *)

val fills : t -> int
val writebacks : t -> int

val snoops : t -> int
(** Recalls issued ([snoop] + per-sharer [snoop_sharers] + [acquire]
    recalls/invalidations). *)

val handoffs : t -> int
(** Writer handoffs: RFOs that recalled another tenant's dirty copy. *)

val owner_changes : t -> int
(** Exclusive grants handed out by [acquire] (first grant included). *)

val invalidations : t -> int
(** Copies killed by RFOs, writer handoffs and [snoop_sharers] recalls. *)
