(** The VFMem coherence directory maintained by the FPGA memory agent
    (§4.3): tracks, per cache-line, which tenants hold a copy of a
    rack-level shared segment and which one may write it.

    Its one user is the rack's multi-writer MSI home, which answers every
    access with [acquire]: a write miss is an RFO that recalls the
    current owner's (possibly dirty) copy and invalidates every other
    sharer; a read miss on a Modified line forces a dirty downgrade.
    Because the home answers every read miss with a Shared grant, a
    per-agent MESI machine driven through it never reaches Exclusive, and
    the directory is the home-side MSI projection of that machine
    ([test_coherence] checks this against a MESI reference model).

    The rack's read-mostly segment path keeps its own per-page sharer set
    (the tenants that fetched the page since the publisher last evicted
    it dirty), and the single-tenant runtime keeps no instance, since
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
(** Internal MSI consistency check, sorted: a Modified line must have an
    owner and no other tracked copy; a Shared line must have no owner;
    owner entries must not outlive their grant.  Empty = coherent. *)

val sharers : t -> line:int -> int list
(** Tenants currently holding a tracked copy of [line], sorted ascending.
    Non-destructive. *)

val handoffs : t -> int
(** Writer handoffs: RFOs that recalled another tenant's dirty copy. *)

val owner_changes : t -> int
(** Exclusive grants handed out by [acquire] (first grant included). *)

val invalidations : t -> int
(** Copies killed by RFOs and writer handoffs. *)
