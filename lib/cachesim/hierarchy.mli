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
    data"). *)

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
    hierarchy, in ascending order.  Each line is probed in the LLC first
    and L1/L2 are searched only when the LLC held it: by inclusion a line
    absent from the LLC is absent everywhere.  Does NOT invoke
    [on_writeback]: the caller receives the dirty data directly, as a
    snoop does. *)

val resident_dirty_lines : t -> page:int -> int list
(** Dirty lines of [page] without invalidating (diagnostics/tests). *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t
val llc : t -> Cache.t

val memory_accesses : t -> int
(** Number of line fills from memory (= LLC misses). *)

val writebacks : t -> int
(** Dirty LLC victims pushed to memory (each also invoked [on_writeback]). *)
