(** Episode executor: run one {!Spec.t} through the stepwise rack engine,
    evaluating the {!Invariants} registry at every op boundary and (by
    default) at the end of the episode.  Outside the benchmarks it is the
    only code that steps the rack engine: [konactl rack SPEC] runs its
    spec here.

    Execution is deterministic: the same spec yields the same telemetry,
    the same fingerprint and the same violations, bit for bit — which is
    what makes {!Shrink} sound and [konactl rack --repro-check]
    meaningful. *)

type outcome = {
  oc_fingerprint : string;
      (** digest over every tenant's telemetry fingerprint; [""] when the
          episode stopped early (boundary violation, abort or
          [check_end:false]) *)
  oc_violations : Invariants.violation list;
      (** empty = every invariant held.  Execution stops at the first
          violating boundary, so these all name the same boundary (or the
          episode end). *)
  oc_aborted : string option;
      (** a deterministic resource abort (see {!abort_of_exn}) — not a
          violation: the run is reported and replayable, but the
          end-state oracles were unreachable *)
  oc_integrity : (string * int) list;  (** tenant 0 integrity counters *)
  oc_shm_rpc : Kona_shmem.Shm_rpc.stats option;
      (** the last [shmrpc:] ring's stats; [None] if no ring ran *)
  oc_result : Kona_rack.Rack.result option;
}

val abort_of_exn : exn -> string option
(** The one-line reason for a deterministic resource abort: a tenant's
    quota admission ([quota-exceeded]), node capacity
    ([out-of-memory]), or an exhausted retry budget — a control-plane
    RPC ([rpc-timeout]) or a queue pair's retransmissions
    ([retry-exhausted]).  [None] for any other exception. *)

val execute :
  ?plant:(int -> Spec.op -> Kona_rack.Rack.engine -> unit) ->
  ?check_end:bool ->
  Spec.t ->
  outcome
(** [execute spec] starts the rack, applies each op in order, then drives
    the replay to exhaustion, finishes, and runs the end-of-episode
    invariants.

    The rack is named by the spec alone: tenant [i] is
    [t<i>-<workload>], and the timed clauses go to {!Kona_rack.Rack.start}
    as its fault plan and op calendar.  A configuration the rack rejects
    (an unknown workload or policy, [fast] beyond the node count, a drain
    of a node no earlier add creates) raises [Invalid_argument] from
    [Rack.start]; nothing is clamped.

    [?plant] is a test hook called after each op is applied (with the op's
    index) — used to inject known bugs under the invariant registry.
    [?check_end:false] skips the drive-to-exhaustion, the finish and the
    end invariants: boundary-scoped checking only, for fast shrinking of
    failures that fire at an op boundary. *)
