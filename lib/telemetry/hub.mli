(** A registry + tracer pair: the unit of telemetry a runtime instance is
    wired to.  The CLI creates one hub per system under measurement and
    passes it to [Runtime.create] / [Vm_runtime.create]; both publish into
    the same namespace so their exports are directly comparable. *)

type t

val create : ?trace_capacity:int -> ?sample:int -> unit -> t
val registry : t -> Registry.t
val tracer : t -> Tracer.t

val scoped : t -> prefix:string -> t
(** A view sharing this hub's tracer whose registry prepends [prefix]
    (see {!Registry.scoped}): the rack hands each tenant runtime a
    [tenant.<i>.] view so N tenants publish into one comparable
    namespace without name collisions. *)

val snapshot : t -> Snapshot.t

val write_trace : path:string -> t -> int
(** Returns the number of trace events written. *)
