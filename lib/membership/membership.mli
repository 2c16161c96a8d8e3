(** Lease-based failure detection over the virtual clock.

    Each tracked node owes the detector one heartbeat per
    [heartbeat_ns], evaluated at quantized virtual-time instants when
    the owner calls {!tick}.  Whether a heartbeat arrives is answered by
    the [reachable] callback — the caller's composition of fail-stop
    crashes and partition windows — because the detector, like a real
    one, cannot tell a crashed node from a partitioned one.  Silence
    longer than [lease_ns] moves a node to [Suspected]; silence longer
    than [2 * lease_ns] declares it [Dead] and fires [on_dead], which is
    what triggers failover (the crash hook no longer does).  A declared-
    dead node that heartbeats again was a {e false positive}: the
    declaration stands (its store is fenced), and the comeback is
    counted once per node in [false_positives].

    Every evaluated heartbeat instant charges a small control-path cost
    through [charge], so detection is not free time. *)

type t

type state = Alive | Suspected | Dead

val create :
  heartbeat_ns:int ->
  lease_ns:int ->
  reachable:(id:int -> at:int -> bool) ->
  on_dead:(id:int -> at:int -> unit) ->
  charge:(ns:int -> unit) ->
  unit ->
  t
(** Raises [Invalid_argument] unless [heartbeat_ns > 0] and
    [lease_ns >= heartbeat_ns]. *)

val track : t -> id:int -> now:int -> unit
(** Start monitoring [id]; its lease begins at [now].  Idempotent. *)

val tick : t -> now:int -> unit
(** Evaluate every heartbeat instant that has elapsed up to [now] for
    every tracked node, advancing suspicion state machines and firing
    [on_dead] for freshly declared deaths.  One integer compare while no
    tracked node owes a heartbeat by [now]. *)

val state : t -> id:int -> state option

val detect_latency : t -> Kona_util.Histogram.t
(** Silence duration at each death declaration (detection latency). *)

val heartbeats : t -> int
val suspicions : t -> int
val suspicions_cleared : t -> int
val declared_dead : t -> int

val false_positives : t -> int
(** Nodes declared dead that later heartbeated again (counted once per
    node). *)
