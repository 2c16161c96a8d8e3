(** Three-level inclusive CPU cache hierarchy (L1D / L2 / LLC) over 64-byte
    lines, with the two event streams the ccFPGA agent observes (§2.3,
    §4.3 of the paper):

    - [on_fill]: a line enters the hierarchy from memory (LLC miss) — the
      directory sees the CPU {e requesting} the line;
    - [on_writeback]: a dirty line leaves the LLC towards memory — the
      directory sees modified data.

    Inclusion is enforced by back-invalidating upper levels when an LLC or
    L2 victim is chosen, merging their dirty bits into the victim, so no
    modified line can escape unobserved.  [flush_page] models the snoop the
    FPGA must perform before evicting a page (§4.4 "Tracking dirty
    data").  An exact snoop filter, kept on every LLC fill and victim,
    lists for each half page the lines the LLC holds, so the snoop visits
    only those lines, as a coherent cache's snoop filter spares it a
    broadcast. *)

type level_config = { size : int; assoc : int }

type config = { l1 : level_config; l2 : level_config; llc : level_config }

val default_config : config
(** 32 KiB/8-way L1, 128 KiB/8-way L2, 1 MiB/16-way LLC — scaled so that
    the LLC : workload-footprint ratio matches the paper's testbed
    (tens-of-MB LLC vs multi-GB workloads). *)

type t

val create :
  ?config:config ->
  ?on_fill:(addr:int -> write:bool -> unit) ->
  ?on_writeback:(addr:int -> unit) ->
  unit ->
  t
(** Event callbacks receive the 64-byte-aligned byte address of the line;
    [on_fill] also reports whether the triggering access was a write (a
    request-for-ownership at the directory). *)

val access : t -> Kona_trace.Access.t -> unit
(** Run the access through the hierarchy (split per line). *)

val access_line : t -> addr:int -> write:bool -> int
(** Single-line access; returns the level that hit (1, 2, 3) or 4 for
    memory. *)

val flush_page : t -> page:int -> int list
(** Invalidate every line of 4KB page index [page] from all levels; returns
    the (64B-aligned) addresses of lines that were dirty anywhere in the
    hierarchy, in ascending order.  Only the lines the snoop filter lists
    for the page are visited: each is flushed from the LLC, then searched
    in L2 and L1; by inclusion a line absent from the LLC is absent
    everywhere.  Raises [Failure] if the filter lists a line the LLC does
    not hold (a broken invariant).  Does NOT invoke [on_writeback]: the
    caller receives the dirty data directly, as a snoop does. *)

val resident_dirty_lines : t -> page:int -> int list
(** Dirty lines of [page] without invalidating (diagnostics/tests). *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t

val llc : t -> Cache.t
(** The levels, for reading only (statistics, {!Cache.probe},
    {!Cache.iter_resident}).  Accessing or flushing a level behind the
    hierarchy's back can break inclusion, and doing so to the LLC breaks
    the snoop filter that [flush_page] relies on. *)

val memory_accesses : t -> int
(** Number of line fills from memory (= LLC misses). *)

val writebacks : t -> int
(** Dirty LLC victims pushed to memory (each also invoked [on_writeback]). *)
