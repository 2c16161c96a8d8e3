(** Background FMem scrubber: a budgeted, virtual-clock-driven sweep
    over remote pages, calling back into the runtime to verify-and-
    repair each one.  The scrubber owns only pacing and accounting; the
    runtime supplies the worklist and the repair action, mirroring how
    PR 3's re-replication copies are budgeted. *)

type outcome =
  | Clean  (** page verified, nothing to do *)
  | Repaired of int  (** [n] corrupt lines repaired from a replica *)
  | Unrepairable of int  (** [n] corrupt lines with no clean copy *)

type t

val create :
  interval_ns:int ->
  scan:(unit -> int array) ->
  check:(page:int -> outcome) ->
  t
(** [interval_ns] paces full-sweep starts: a new sweep may begin once
    per interval.  Each [tick] checks at most 8 pages, which bounds the
    background-clock burst of one poll.
    [scan] snapshots the worklist (page indices) at the start of each
    sweep; [check] verifies one page and reports what happened. *)

val tick : t -> now:int -> unit
(** Advance the scrubber to virtual time [now]: start a sweep if one is
    due and none is in flight, then check up to 8 pages. *)

val next_due : t -> int
(** The earliest virtual time at which {!tick} does anything: 0 while a
    sweep is in flight, else the time the next sweep may start. *)

val force_sweep : t -> unit
(** Run one complete fresh sweep to the end immediately, ignoring
    interval and the per-tick budget.  Any in-flight sweep is abandoned — its cursor
    may already have passed pages corrupted after it started, so only a
    from-scratch sweep guarantees every page is verified before the
    end-of-run oracle.  Used at drain. *)

val pages_scrubbed : t -> int
val repairs : t -> int
val sweeps : t -> int
