(** Event tracer: a fixed-capacity ring of typed span/instant events stamped
    with the runtime's virtual app/background clocks.

    Designed to be left on: recording is a couple of stores, the ring
    overwrites its {e oldest} entries (the newest events — usually the ones
    near the anomaly you are chasing — are never lost), and a deterministic
    1-in-N [sample] knob thins hot paths without an RNG. *)

type kind = Instant | Span of { dur_ns : int }

type event = {
  seq : int;  (** Per-tracer monotonic id (post-sampling). *)
  name : string;  (** Hierarchical, e.g. [runtime.fetch.page]. *)
  kind : kind;
  app_ns : int;  (** Application virtual clock at record time. *)
  bg_ns : int;  (** Background virtual clock at record time. *)
  args : (string * int) list;
}

type t

val create : ?capacity:int -> ?sample:int -> unit -> t
(** [capacity] defaults to 4096 events, [sample] to 1 (keep everything);
    [sample = n] keeps every n-th offered event. *)

val set_clock : t -> (unit -> int * int) -> unit
(** Install the virtual clock pair [(app_ns, bg_ns)]; the runtime does this
    at construction.  Before installation events are stamped (0, 0). *)

val instant : t -> ?args:(string * int) list -> string -> unit
val span : t -> ?args:(string * int) list -> dur_ns:int -> string -> unit

val events : t -> event list
(** Oldest to newest. *)

val length : t -> int

val offered : t -> int
(** Events presented, before sampling. *)

val accepted : t -> int
(** Events that entered the ring (post-sampling). *)

val write_jsonl : path:string -> t -> int
(** One JSON object per line, oldest first; returns the number written. *)
