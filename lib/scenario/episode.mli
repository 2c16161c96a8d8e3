(** Episode executor: run one {!Spec.t} through the stepwise rack engine,
    evaluating the {!Invariants} registry at every op boundary and (by
    default) at the end of the episode.

    Execution is deterministic: the same spec yields the same telemetry,
    the same fingerprint and the same violations, bit for bit — which is
    what makes {!Shrink} sound and [konactl fuzz --replay] meaningful. *)

type outcome = {
  oc_spec : Spec.t;
  oc_fingerprint : string;
      (** digest over every tenant's telemetry fingerprint; [""] when the
          episode stopped early (boundary violation, abort or
          [check_end:false]) *)
  oc_violations : Invariants.violation list;
      (** empty = every invariant held.  Execution stops at the first
          violating boundary, so these all name the same boundary (or the
          episode end). *)
  oc_aborted : string option;
      (** a deterministic resource abort (quota admission, node capacity)
          — not a violation: the run is reported and replayable, but the
          end-state oracles were unreachable *)
  oc_integrity : (string * int) list;  (** tenant 0 integrity counters *)
  oc_injected : (string * int) list;  (** tenant 0 injector counters *)
  oc_divergent : int;  (** shadow-heap mismatches summed over tenants *)
  oc_unrepairable : int;  (** tenant 0 pages declared unrepairable *)
  oc_degraded : string option;  (** tenant 0 degraded-mode reason *)
  oc_result : Kona_rack.Rack.result option;
}

val execute :
  ?plant:(int -> Spec.op -> Kona_rack.Rack.engine -> unit) ->
  ?check_end:bool ->
  Spec.t ->
  outcome
(** [execute spec] starts the rack, applies each op in order, then drives
    the replay to exhaustion, finishes, and runs the end-of-episode
    invariants.

    [?plant] is a test hook called after each op is applied (with the op's
    index) — used to inject known bugs under the invariant registry.
    [?check_end:false] skips the drive-to-exhaustion, the finish and the
    end invariants: boundary-scoped checking only, for fast shrinking of
    failures that fire at an op boundary. *)

val passed : outcome -> bool
(** No invariant violations (aborts still count as passed). *)

val config_of_setup : Spec.setup -> Kona_rack.Rack.config
(** The rack configuration a spec's setup clause describes.  Its [ops]
    stay empty: {!execute} applies the spec's ops one by one. *)

val tenants_of_setup : Spec.setup -> Kona_rack.Rack.tenant_cfg list
