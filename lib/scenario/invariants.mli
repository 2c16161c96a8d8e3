(** Cross-subsystem invariant registry.

    Each invariant is a named, documented check over a paused
    {!Kona_rack.Rack.engine}.  [Boundary] invariants are cheap enough to
    evaluate after every op; [End] invariants need the frozen
    {!Kona_rack.Rack.result} (divergence oracles, final counters).  A
    failing check names the invariant and describes the offending state,
    so a fuzz report reads as a bug report, not a diff. *)

type scope = Boundary | End

type ctx = {
  engine : Kona_rack.Rack.engine;
  spec : Spec.t;  (** guards that depend on what the episode did *)
  result : Kona_rack.Rack.result option;  (** [Some] only for [End] checks *)
}

type violation = { inv : string; detail : string }

type t = {
  name : string;
  scope : scope;
  doc : string;
  check : ctx -> string list;  (** one string per violation, empty = holds *)
}

val names : string list
(** Every registered invariant: node-accounting, quota-conservation,
    placement-coherence, at-most-one-primary, no-post-fence-write and
    single-owner-per-line at every boundary; shadow-heap,
    integrity-accounting, recovery-convergence, wfq-bounds and
    readers-observe-last-write at the end of the episode. *)

val check : scope -> ctx -> violation list
(** Evaluate every registered invariant of [scope] against [ctx]. *)
