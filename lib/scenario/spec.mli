(** Scenario grammar: one line describes one whole episode, and the one
    surface that configures a rack ([konactl rack SPEC] takes the line,
    and {!Episode} runs it).

    A spec is a [';']-separated clause list.  The first clause is the
    setup (rack shape, workloads, seeds); every following clause is one
    op, applied in sequence order between replay slices:

    {v
    setup:tenants=2,nodes=3,...;run:n=512;bit-flip:p=0.1;drain:id=1;run:n=512
    v}

    Ops cover the whole public surface:

    - [run:n=N] — replay at least [N] recorded workload accesses
      (interleaved across tenants in scheduler quanta);
    - [crash:id=N] — fail-stop memory node [N] now (failover/degrade);
    - [flap:dur=D] — outage every tenant's NIC port for [D];
    - [partition:dur=D,nodes=A|B] — asymmetric partition: the listed
      nodes stay healthy but their links to the whole rack drop for [D]
      (deliveries defer, heartbeats go silent; with [hb] set in the
      setup, long partitions are falsely declared dead and fenced);
    - any probabilistic {!Kona_faults.Fault_spec} clause
      ([bit-flip:p=0.1], [torn-write:p=...], [stale-read:p=...],
      [dup-deliver:p=...], [wqe-drop:p=...], [wqe-delay:p=...,ns=...],
      [rpc-timeout:p=...]) — armed on tenant 0 from this point on;
    - [quota:t=I,bytes=B] — reset tenant [I]'s memory quota (clamped to
      its current usage at execution, so admission stays well-defined);
    - [publish:pages=N] — tenant 0 publishes an [N]-page shared segment,
      the others map it foreign;
    - [shared:rounds=N] — [N] synthetic shared-segment rounds (tenant 0
      writes, the rest read);
    - [mwrite:rounds=N] — [N] multi-writer rounds: the writer rotates
      over the setup's [writers] tenants, every other tenant reads the
      line back through the MSI directory (writer handoffs, RFO
      invalidations);
    - [shmrpc:calls=N] — [N] shared-memory RPC calls between tenant 1
      (client) and tenant 0 (server) over coherent ring lines; no-op
      with fewer than two tenants;
    - [scrub] — force one full scrub sweep on every runtime;
    - [add[:cap=B]] / [drain:id=N] / [rebalance] — a
      {!Kona_rack.Rack_ops} op, read and rendered by the same functions
      as the timed [add@T] / [drain@T] / [rebalance@T] clauses below, but
      without the [@T]: it applies immediately;
    - [migrate-epoch] — force one placement-migrator epoch.

    Timed clauses are a start-time calendar, not ops in sequence: they
    fire at virtual time [T] wherever they sit in the list.
    [node-crash@T:id=N], [link-flap@T:dur=D] and
    [partition@T:dur=D,nodes=A|B] join the rack's fault plan
    ({!Kona_rack.Rack.config.faults}): like the [flap:] and
    [partition:] ops, a timed flap or partition reaches every tenant,
    and tenant 0 fires a timed crash; [add@T[:cap=B]], [drain@T:id=N]
    and [rebalance@T] join the rack's op calendar
    ({!Kona_rack.Rack.config.ops}).  Only these kinds take an [@T], and
    [node-crash]/[link-flap] need one.

    The lexing is {!Kona_util.Clause}'s, shared with the fault and
    rack-op grammars: durations accept ns/us/ms/s suffixes; lists
    (workloads, shares, quotas) use ['|'] so [','] stays the parameter
    separator.  Rendering is canonical and total:
    [parse (to_string t) = Ok t]. *)

type op =
  | Run of { n : int }
  | Crash of { id : int }
  | Flap of { dur_ns : int }
  | Partition of { dur_ns : int; ids : int list }
  | Corrupt of Kona_faults.Fault_spec.clause  (** probabilistic kinds only *)
  | Quota of { tenant : int; bytes : int }
  | Publish of { pages : int }
  | Shared of { rounds : int }
  | Mwrite of { rounds : int }
  | Shm_rpc of { calls : int }
  | Scrub
  | Rack of Kona_rack.Rack_ops.op
  | Migrate_epoch
  | Fault_at of Kona_faults.Fault_spec.clause
      (** a timed [node-crash], [link-flap] or [partition] clause *)
  | Rack_at of Kona_rack.Rack_ops.clause  (** a timed rack op *)

type setup = {
  tenants : int;
  nodes : int;
  node_cap : int;  (** bytes per memory node *)
  gbps : float;  (** per-node ingress rate *)
  replicas : int;
  fmem : int;  (** per-tenant local-cache pages *)
  quantum : int;  (** accesses per scheduling slice *)
  seed : int;  (** workload seed base (tenant [i] gets [seed + i]) *)
  fault_seed : int;
  scrub_ns : int;  (** background scrub interval; 0 = no scrubber *)
  verify : bool;  (** on-fetch checksum verification *)
  workloads : string list;  (** cyclic per tenant *)
  shares : int list;  (** cyclic per tenant, all >= 1 *)
  quotas : int list;  (** cyclic per tenant; 0 = unmetered *)
  policy : string;  (** placement policy slug *)
  fast_nodes : int;
  slow_extra_ns : int;
  heartbeat_ns : int;
      (** [hb=]: membership heartbeat interval; 0 (default) = no leases,
          crashes are detected instantly.  Either way failover runs on
          one recovery queue — only the detector differs *)
  lease_ns : int;
      (** [lease=]: membership lease; must be >= [hb] when [hb > 0] *)
  writers : int;
      (** [writers=]: tenants allowed to write the shared segment
          ({!Kona_rack.Rack.config.shared_writers}); 1 (default) keeps
          the single-publisher read-mostly path *)
  shared_pages : int;
      (** [seg=]: pages of tenant 0's shared segment, published at start
          ({!Kona_rack.Rack.config.shared_pages}); 0 (default) leaves it
          to [publish:] ops.  Rendered, with [segops], only when either
          is non-zero *)
  shared_ops : int;
      (** [segops=]: synthetic shared-segment ops woven into each
          tenant's replay ({!Kona_rack.Rack.config.shared_ops}); 0 by
          default *)
}

type t = { setup : setup; ops : op list }

val default_setup : setup
(** Single tenant on 2 x 128 MiB nodes, kv-seq, one replica, 256-page
    cache, 200 us scrub, verification on, first-fit placement, no shared
    segment at start. *)

val parse : string -> (t, string) result
val parse_exn : string -> t
(** Raises [Invalid_argument] with the parse error. *)

val to_string : t -> string
(** Canonical one-line rendering ([parse (to_string t) = Ok t]). *)
