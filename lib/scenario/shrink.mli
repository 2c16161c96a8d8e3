(** Seeded shrinking: delta-debug a failing episode down to a minimal
    repro.

    The oracle maps a spec to the {e name} of the first invariant it
    violates ([None] = passes).  Determinism makes this sound: a
    candidate spec either reproduces the same named failure or it does
    not.  Shrinking first removes op windows (classic ddmin, window size
    halving from |ops|/2 to 1), then halves numeric op fields (run
    lengths, flap durations, shared rounds, ...) to a fixpoint. *)

type result = {
  minimal : Spec.t;  (** still fails the oracle with the original name *)
  attempts : int;  (** oracle evaluations spent *)
}

val run :
  ?max_attempts:int ->
  oracle:(Spec.t -> string option) ->
  Spec.t ->
  result
(** [run ~oracle spec] requires [oracle spec = Some _] (raises
    [Invalid_argument] otherwise) and returns a sub-spec that still
    fails with the same invariant name.  [max_attempts] (default 400)
    bounds oracle evaluations; the best-so-far spec is returned when the
    budget runs out. *)
