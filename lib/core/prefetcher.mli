(** Stream prefetch detection for remote pages.

    With Kona, pages stay mapped and fetches are plain cache misses, so the
    hardware prefetcher keeps running past page boundaries and its requests
    reach the FPGA, which can fetch the {e next pages} from remote memory
    ahead of demand (§3, §4.4).  Page-fault-based systems cannot do this:
    faults serialize and prefetchers do not cross faulting pages.

    This module is the detection logic only: it watches the demand-miss
    page stream, recognizes sequential streams, and asks the owner (the
    caching handler) to prefetch ahead.  Deterministic and purely
    mechanical, so it is testable in isolation. *)

type t

type policy =
  | Next_page  (** sequential stream detection, prefetch the next pages *)
  | Majority_stride
      (** Leap-style (Maruf & Chowdhury, ATC'20 — the paper's [57]):
          majority vote over the recent miss-delta window picks a stride,
          and prefetching runs [depth] strides ahead.  Catches strided
          scans that [Next_page] misses. *)

val create :
  ?policy:policy ->
  ?streams:int ->
  ?depth:int ->
  ?requested_cap:int ->
  on_prefetch:(vpage:int -> unit) ->
  unit ->
  t
(** Track up to [streams] (default 8) concurrent sequential streams
    ([Next_page]) or an 8-delta history window ([Majority_stride]); on a
    detection hit, request the next [depth] (default 2) pages/strides via
    [on_prefetch] (never re-requesting pages already asked for).  The
    stride-mode dedup table is LRU-bounded to [requested_cap] pages
    (default 4096) so memory stays bounded on unbounded scans. *)

val observe_miss : t -> vpage:int -> unit
(** Feed one demand miss. *)

val forget : t -> vpage:int -> unit
(** The page was evicted from the local cache: clear it from the dedup
    table so a later stream can prefetch it again. *)

val requested_pending : t -> int
(** Pages currently held in the stride-mode dedup table (bounded by
    [requested_cap]). *)

val issued : t -> int
(** Prefetch requests emitted. *)
