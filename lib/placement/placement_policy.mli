(** Pluggable rack-scale placement policies.

    A policy answers two questions for the rack controller:

    - {e where does a fresh slab go?} ([choose_node], if the policy has
      one, consulted before the controller's round-robin fallback), and
    - {e which pages should move this epoch?} ([plan], consulted by the
      background migrator with the epoch's page {!view}).

    Three implementations ship with the runtime, by {!find} name:

    - ["first-fit"] — the pre-placement allocator: no [choose_node] (the
      controller round-robins) and never migrates;
    - ["heat"] — ships hot pages toward fast (low-latency) nodes and
      evicts cold pages off them to make room;
    - ["centralized"] — a MIND-style central directory: every placement
      decision goes through one stateful allocator that tracks per-node
      load and plans capacity-balancing moves.

    Policies must be deterministic: [plan] may depend only on its
    arguments and state accumulated from previous deterministic calls. *)

type node_info = {
  ni_node : int;  (** node id, index into the rack's WFQ array *)
  ni_fast : bool;  (** low-latency tier *)
  ni_free : int;  (** bytes still unreserved *)
  ni_capacity : int;  (** total bytes *)
  ni_draining : bool;  (** excluded from new placement; pages leaving *)
}

type page_info = {
  pi_vpage : int;  (** tenant-local virtual page index *)
  pi_tenant : int;  (** tenant index in the rack *)
  pi_node : int;  (** node currently holding the page *)
  pi_heat : int;  (** decayed heat counter *)
}

(** The migrator's view of the rack's migratable pages in one epoch.
    [hot] is cheap: it holds only the pages with nonzero heat.  [all]
    adds every cold page, so a policy forces it only when it acts on
    cold pages. *)
type view = {
  hot : page_info list;
      (** Pages with heat > 0, hottest first; ties by tenant, then
          vpage. *)
  all : page_info list Lazy.t;
      (** [hot], then every zero-heat page in (tenant, vpage) order. *)
}

type move = {
  mv_tenant : int;
  mv_vpage : int;
  mv_dst : int;  (** destination node id *)
}

type t = {
  name : string;
  choose_node : (nodes:node_info list -> tenant:int -> int option) option;
      (** Pick a node for a fresh slab, or answer [None] to defer to the
          controller's round-robin; never a draining node.  First-fit
          and heat have none: every slab takes the round-robin. *)
  plan : nodes:node_info list -> pages:view -> budget:int -> move list;
      (** Up to [budget] moves for this epoch.  Returned moves must
          target live, non-draining nodes. *)
}

val hot_threshold : int
(** Decayed heat at or above which a page counts hot: 2.  Fetches add 2,
    evictions 1, and heat halves every migrator epoch, so a page is hot
    when it was fetched again within the current epoch.  The "heat"
    policy and the rack's hot-hit accounting both read it. *)

val centralized : unit -> t

val names : string list
(** Accepted [--policy] spellings, in presentation order. *)

val find : string -> t
(** Policy by name ("first-fit" | "heat" | "centralized").
    Raises [Invalid_argument] on anything else. *)
