(** Log2-bucketed histograms for latency-style quantities.

    Constant memory (one counter per power-of-two bucket), good enough for
    percentile reporting of fetch/eviction latencies spanning ns to ms. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record a non-negative sample. *)

val count : t -> int

val sum : t -> float
(** Sum of all recorded samples (exact, not bucket-approximated). *)

val mean : t -> float

val copy : t -> t
(** Independent copy; mutating either side leaves the other unchanged. *)

val percentile : t -> float -> int
(** [percentile t p] (0 < p <= 100) returns the upper bound of the bucket
    containing the p-th percentile — an upward-rounded estimate.  0 when
    empty. *)

val buckets : t -> (int * int) list
(** Non-empty buckets as [(inclusive lower bound, count)], ascending. *)

val pp : Format.formatter -> t -> unit
