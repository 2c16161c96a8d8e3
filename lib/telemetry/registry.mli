(** Typed metrics registry: the single namespace every component publishes
    into, so Kona and the VM baselines are compared through one pipeline.

    Metrics have hierarchical dot names ([runtime.fetch.latency_ns]) plus
    optional labels ([cache.misses{level=l1}]).  Registering the same full
    name twice raises [Invalid_argument] — silent double-counting is the
    failure mode this subsystem exists to prevent.

    Metrics are pulled: [counter_fn]/[gauge_fn] register a closure read
    only at [snapshot]/[read] time, and [histogram_ref] registers a
    histogram a component already keeps.  Components keep their own
    tallies; the registry only names them.

    Not thread-safe; the simulator is single-threaded by design. *)

type t

val create : unit -> t

val scoped : t -> prefix:string -> t
(** A view onto the same table that prepends [prefix] to every name it
    registers or reads and restricts [snapshot] to names under that
    prefix.  Used for per-tenant scoping ([tenant.0.] etc.): components
    keep registering their usual names, the rack hands them a scoped view.
    Prefixes compose ([scoped (scoped r "a.") "b."] registers under
    ["a.b."]). *)

val counter_fn : t -> ?labels:(string * string) list -> string -> (unit -> int) -> unit
val gauge_fn : t -> ?labels:(string * string) list -> string -> (unit -> int) -> unit

val histogram_ref :
  t -> ?labels:(string * string) list -> string -> Kona_util.Histogram.t -> unit
(** Register an existing histogram (a component's private one) under a
    name; snapshots copy it. *)

val read : t -> string -> Snapshot.value option
(** [read t name] is what {!snapshot} would report for the one metric
    whose full name is [name] under [t]'s scope — labels rendered as in
    snapshots, e.g. ["cache.misses{level=l1}"] — evaluating no other
    metric.  [None] when [t] holds no such metric. *)

val snapshot : t -> Snapshot.t
(** Immutable view: pull closures are evaluated, histograms copied. *)
