(** Stream prefetch detection for remote pages.

    With Kona, pages stay mapped and fetches are plain cache misses, so the
    hardware prefetcher keeps running past page boundaries and its requests
    reach the FPGA, which can fetch the {e next pages} from remote memory
    ahead of demand (§3, §4.4).  Page-fault-based systems cannot do this:
    faults serialize and prefetchers do not cross faulting pages.

    This module is the detection logic only: it watches the demand-miss
    page stream, recognizes sequential streams, and asks the owner (the
    caching handler) to prefetch ahead.  Deterministic and purely
    mechanical, so it is testable in isolation.

    Two constants shape it: it tracks up to 8 concurrent streams, a new
    stream taking the slot least recently advanced, and it runs 2 pages
    ahead of each. *)

type t

val create : on_prefetch:(vpage:int -> unit) -> t
(** A miss that continues a stream (the stream's last page or the one
    after it) requests the pages up to 2 past it through [on_prefetch],
    never one the stream has already asked for. *)

val observe_miss : t -> vpage:int -> unit
(** Feed one demand miss. *)

val issued : t -> int
(** Prefetch requests emitted. *)
