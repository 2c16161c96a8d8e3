(** KLib's resource manager: pre-allocates disaggregated memory from the
    rack controller in slab batches (off the critical path) and maintains
    the {e remote translation} hashmap from VFMem pages to (node, remote
    address) that the FPGA consults on fetch and writeback (§4.4).

    The VFMem address space is identified with the application heap's
    address space: logically pre-populated, always mapped present. *)

type t

val create :
  ?batch:int ->
  ?rpc:Kona_rdma.Rpc.t ->
  ?tenant:string ->
  controller:Rack_controller.t ->
  unit ->
  t
(** [batch]: how many slabs to request per controller round-trip
    (default 4).  When [rpc] is given, each round-trip is priced as a
    two-sided exchange on that channel (request + controller service +
    slab-list response).  When [tenant] is given, every slab allocation is
    charged against that tenant's quota at the controller
    ({!Rack_controller.Quota_exceeded} on rejection). *)

val ensure_backed : t -> addr:int -> len:int -> unit
(** Guarantee every page of [addr, addr+len) has a backing slab, allocating
    (in batches) as needed.  The caching handler calls this on a page's
    first touch. *)

val translate : t -> vaddr:int -> (int * int) option
(** [(node, remote_addr)] for a backed VFMem address.  A page-grain
    remap ({!remap_page}) takes precedence over the slab map. *)

val remap_page : t -> vpage:int -> node:int -> remote_addr:int -> unit
(** Point [vpage]'s translation at a new home — the migrator's hook.
    [remote_addr] is the page-base address on [node]; subsequent
    {!translate} and {!iter_backed_pages} calls see the new location.
    The caller must have copied the bytes (and replicas) first and
    flushed any staged CL-log entries, which resolve addresses at
    append time.  Raises [Invalid_argument] on an unaligned address. *)

val remaps : t -> int
(** Page remaps applied so far. *)

val map_foreign : t -> at:int -> Slab.t list -> unit
(** Map another tenant's published slabs (in order) into this address
    space starting at slab-aligned [at]: purely translation entries — the
    pages stay owned and backed by the publisher.  Foreign slabs are
    excluded from [slabs]/[iter_backed_pages], so owner-only sweeps (the
    scrubber, divergence oracles) skip borrowed pages.  Raises
    [Invalid_argument] on misalignment, a size mismatch, or an index that
    is already mapped. *)

(** [slabs] lists what this manager allocated for its own tenant (foreign
    mappings excluded), oldest first. *)
val slabs : t -> Slab.t list
val controller_round_trips : t -> int

val iter_backed_pages : t -> (vpage:int -> node:int -> remote_addr:int -> unit) -> unit
(** Every backed page with its remote location (integrity checks). *)

type check = {
  checked : int;  (** backed pages [keep] accepted *)
  mismatches : int;  (** of those, pages whose remote bytes differ *)
  lost : int;  (** of those, pages whose home node has crashed *)
}

val compare_remote :
  t -> keep:(int -> bool) -> read_local:(addr:int -> len:int -> string) -> check
(** The remote-memory oracle: for every backed page [vpage] (own slabs
    only, at its current home) with [keep vpage], compare the page's
    remote bytes with [read_local] over the same virtual range.  A home
    that has crashed with no promoted replica raises nothing: the page
    counts as [lost], not as a mismatch. *)
