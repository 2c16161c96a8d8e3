(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible bit-for-bit from a seed, and
    independent components can use independent streams ([split]). *)

type t

val create : seed:int -> t

val split : t -> t
(** A new generator whose stream is independent of the parent's. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound-1].  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val zipf : t -> n:int -> theta:float -> int
(** Draw from a Zipf-like distribution over [0, n-1] with skew [theta]
    (0 < theta < 1; higher is more skewed).  Uses the standard YCSB
    rejection-free approximation. *)
