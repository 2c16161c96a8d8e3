(** Memory-access events.

    Workloads running on the instrumented heap emit one event per load or
    store; every analysis and runtime in the reproduction consumes this
    stream.  This mirrors the role of Intel Pin instrumentation in the
    paper (§2.1) and of the application instrumentation used for the
    emulated Kona runtime (§5). *)

type kind = Read | Write

type t = { addr : int; len : int; kind : kind }
(** A contiguous access of [len] bytes starting at byte address [addr].
    [len] is positive and accesses may span cache-line and page
    boundaries. *)

type sink = t -> unit
(** Consumers of the access stream. *)

val read : addr:int -> len:int -> t
val write : addr:int -> len:int -> t
val is_write : t -> bool

val end_addr : t -> int
(** One past the last byte touched. *)

val iter_lines : t -> (int -> unit) -> unit
(** Apply to each global cache-line index touched by the access. *)

val iter_pages : t -> (int -> unit) -> unit
(** Apply to each base-page index touched by the access. *)

val split_at_lines : t -> t list
(** Split into per-cache-line sub-accesses (used when feeding line-grain
    consumers such as the cache simulator). *)

(** Sink combinators. *)
module Tap : sig
  val tee : sink list -> sink
  val filter : (t -> bool) -> sink -> sink
  val ignore : sink

  val counting : unit -> sink * (unit -> int)
  (** A sink plus a getter for how many events it absorbed. *)
end
