(** Immutable point-in-time view of a metrics registry.

    Snapshots are plain data: taking one copies every histogram, so later
    mutation of the live registry cannot leak in. *)

type value =
  | Counter of int  (** Monotonic event count. *)
  | Gauge of int  (** Instantaneous level (resident pages, queue depth). *)
  | Hist of Kona_util.Histogram.t  (** Log2-bucketed latency distribution. *)

type t = (string * value) list
(** Sorted by metric name. *)

val find : t -> string -> value option

val counter_value : t -> string -> int option
(** Integer value of a counter or gauge by name. *)

val to_json : t -> Json.t
(** The metrics array: one object per metric with a ["type"] tag. *)

val document : ?meta:(string * Json.t) list -> t -> Json.t
(** Self-describing export document: schema tag, caller metadata (system,
    workload, seed, ...), then ["metrics"]. *)

val pp_table : Format.formatter -> t -> unit
(** Human-readable aligned table, one metric per line. *)
