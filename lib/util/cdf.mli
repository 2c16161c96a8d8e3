(** Empirical cumulative distribution functions over integer samples.

    Figures 2 and 3 of the paper are CDFs (accessed cache-lines per page,
    contiguous-segment lengths); this module accumulates the samples and
    renders the same series. *)

type t

val create : unit -> t
val add : t -> int -> unit
val add_many : t -> int -> int -> unit
(** [add_many t v n] records value [v] [n] times. *)

val count : t -> int

val at : t -> int -> float
(** [at t v] is P(X <= v), in [0, 1].  0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] is the smallest value [v] with [at t v >= q].
    Raises [Invalid_argument] when empty or [q] outside (0, 1]. *)

val mean : t -> float

val series : t -> max_value:int -> (int * float) list
(** [(v, P(X <= v))] for v = 0 .. max_value — the plottable CDF curve. *)
