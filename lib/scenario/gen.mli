(** Seeded whole-surface op-sequence generator.

    Every episode is drawn from one of three families, chosen by the
    seed unless the caller names one:

    - the {e corruption} family — a single tenant with verification and a
      background scrubber on, exercising every probabilistic fault kind
      plus scrubs, quota resets and shared-segment traffic.  Crash,
      drain and migration ops are excluded so the integrity-accounting
      invariant's detection equalities stay exact;
    - the {e ops} family — a multi-tenant rack under reconfiguration:
      crashes (at most [replicas], so failover keeps every page
      reachable), link flaps, quota changes, node adds/drains, forced
      rebalances and migration epochs.  Corruption clauses are excluded;
    - the {e shmem} family — 2-3 tenants with multiple shared-segment
      writers, driving multi-writer rounds and shared-memory RPC rings
      through the MSI directory while crashing nodes (bounded by
      [replicas]) and partitioning them mid-handoff.

    Numeric parameters are drawn from grids whose canonical rendering
    re-parses exactly, so [Spec.parse (Spec.to_string (generate ...))]
    reproduces the episode bit-for-bit. *)

type family = Corruption | Ops | Shmem

val generate : seed:int -> ops:int -> Spec.t
(** [generate ~seed ~ops] draws a spec with [max 1 ops] ops from the
    seed's own family; the first op is always a [run:] slice.
    Deterministic in [seed]. *)

val generate_family : family -> seed:int -> ops:int -> Spec.t
(** [generate] in the given family; equal to [generate] for a seed of
    that family. *)
