module Rng = Kona_util.Rng
module Units = Kona_util.Units
module Fault_spec = Kona_faults.Fault_spec
module Rack_ops = Kona_rack.Rack_ops

(* Probabilities live on a 1/10000 grid so the canonical %g rendering of
   a generated clause re-parses to the exact same float — generated
   specs must round-trip bit-for-bit for replay. *)
let grid_p rng ~lo ~hi =
  let lo = int_of_float (lo *. 10000.) and hi = int_of_float (hi *. 10000.) in
  float_of_int (lo + Rng.int rng (hi - lo + 1)) /. 10000.

let pick rng l = List.nth l (Rng.int rng (List.length l))

let workload_pool = [ "kv-seq"; "kv-uniform"; "kv-zipf" ]

(* Corruption family: single tenant, verification + scrubber on, every
   probabilistic fault kind in play.  Kept crash/drain/migration-free so
   the integrity-accounting invariant's detection equalities stay exact
   (failover and page moves heal corruption outside the detection
   paths). *)
let corruption_setup rng =
  {
    Spec.default_setup with
    tenants = 1;
    nodes = 2;
    fmem = pick rng [ 128; 256 ];
    quantum = pick rng [ 128; 256; 512 ];
    seed = Rng.int rng 1_000_000;
    fault_seed = Rng.int rng 1_000_000;
    scrub_ns = pick rng [ 100_000; 200_000; 500_000 ];
    workloads = [ pick rng workload_pool ];
    gbps = pick rng [ 0.5; 1.0; 2.0 ];
  }

let corruption_op rng ~published =
  match Rng.int rng 11 with
  | 0 | 1 | 2 ->
      Spec.Run { n = 256 * (1 + Rng.int rng 8) }
  | 3 ->
      Spec.Corrupt (Fault_spec.Bit_flip { p = grid_p rng ~lo:0.02 ~hi:0.2 })
  | 4 ->
      Spec.Corrupt (Fault_spec.Torn_write { p = grid_p rng ~lo:0.02 ~hi:0.2 })
  | 5 ->
      Spec.Corrupt (Fault_spec.Dup_deliver { p = grid_p rng ~lo:0.02 ~hi:0.2 })
  | 6 ->
      Spec.Corrupt (Fault_spec.Stale_read { p = grid_p rng ~lo:0.01 ~hi:0.08 })
  | 7 -> Spec.Scrub
  | 8 ->
      if published then Spec.Shared { rounds = 8 + Rng.int rng 24 }
      else Spec.Publish { pages = 16 + Rng.int rng 48 }
  | 9 ->
      (* no membership here (hb=0): the window defers deliveries and
         replays them at heal; corruption riding a deferred delivery must
         still be detected when it finally lands (the exactness ledger
         excludes partition runs — deferral heals some injections) *)
      Spec.Partition
        { dur_ns = 1_000 * (20 + Rng.int rng 80); ids = [ Rng.int rng 2 ] }
  | _ ->
      Spec.Quota
        { tenant = 0; bytes = Units.mib (16 + Rng.int rng 48) }

(* Ops family: multi-tenant rack reconfiguration — crash/flap/quota
   changes, node adds and drains, forced rebalance and migration epochs.
   Corruption clauses are excluded (their accounting invariant does not
   survive page moves); at most [replicas] crashes so failover keeps
   every page reachable and the placement-coherence invariant stays
   checkable. *)
let ops_setup rng =
  let tenants = 1 + Rng.int rng 3 in
  let nodes = 2 + Rng.int rng 3 in
  (* Membership on a grid: off (instant detection) or a short lease so
     generated partitions actually expire leases within an episode.
     With membership on, crashes are excluded (ops_op) — failover waits
     for lease expiry, and a too-short episode would leave pages homed
     on the dead store with the detector still counting down. *)
  let heartbeat_ns = pick rng [ 0; 0; 10_000; 20_000 ] in
  let lease_ns = pick rng [ 50_000; 100_000 ] in
  {
    Spec.default_setup with
    tenants;
    nodes;
    replicas = 1;
    heartbeat_ns;
    lease_ns;
    fmem = pick rng [ 128; 256 ];
    quantum = pick rng [ 128; 256; 512 ];
    seed = Rng.int rng 1_000_000;
    fault_seed = Rng.int rng 1_000_000;
    workloads =
      List.init tenants (fun _ -> pick rng workload_pool);
    shares = List.init tenants (fun _ -> 1 + Rng.int rng 4);
    quotas = [ 0 ];
    policy = pick rng [ "first-fit"; "heat"; "centralized" ];
    fast_nodes = 1 + Rng.int rng nodes;
    slow_extra_ns = pick rng [ 0; 200; 500 ];
    gbps = pick rng [ 0.5; 1.0; 2.0; 4.0 ];
  }

let ops_op rng ~setup ~crashes ~adds ~published =
  let tenants = setup.Spec.tenants in
  match Rng.int rng 13 with
  | 0 | 1 | 2 | 3 ->
      Spec.Run { n = 256 * (1 + Rng.int rng 8) }
  | 4 when !crashes < setup.Spec.replicas && setup.Spec.heartbeat_ns = 0 ->
      incr crashes;
      Spec.Crash { id = Rng.int rng setup.Spec.nodes }
  | 5 -> Spec.Flap { dur_ns = 1_000 * (10 + Rng.int rng 90) }
  | 12 ->
      (* partitions never touch mirror stores (minted physical ids), so
         every write made during the window survives on a mirror even
         when a long window triggers a false-positive failover *)
      Spec.Partition
        {
          dur_ns = 1_000 * (50 + Rng.int rng 250);
          ids = [ Rng.int rng setup.Spec.nodes ];
        }
  | 6 ->
      Spec.Quota
        {
          tenant = Rng.int rng tenants;
          bytes = Units.mib (16 + Rng.int rng 48);
        }
  | 7 when !adds < 2 ->
      incr adds;
      Spec.Rack
        (Rack_ops.Add_node
           {
             capacity =
               (if Rng.bool rng then Some (Units.mib (64 + 64 * Rng.int rng 2))
                else None);
           })
  | 8 -> Spec.Rack (Rack_ops.Drain { id = Rng.int rng setup.Spec.nodes })
  | 9 -> Spec.Rack Rack_ops.Rebalance
  | 10 -> Spec.Migrate_epoch
  | _ ->
      if published then Spec.Shared { rounds = 8 + Rng.int rng 24 }
      else Spec.Publish { pages = 16 + Rng.int rng 48 }

(* Shmem family: multi-writer shared traffic through the MSI directory —
   rotating writers, shared-memory RPC rings, crashes of the node homing
   the segment (owner data) and partitions landing mid-handoff (recall
   deliveries defer and replay at heal).  Corruption is excluded for the
   same reason as the ops family; crashes are bounded by the replica
   degree so the last-writer-wins oracle keeps something to read. *)
let shmem_setup rng =
  let tenants = 2 + Rng.int rng 2 in
  {
    Spec.default_setup with
    tenants;
    nodes = 2;
    replicas = 1;
    writers = 2 + Rng.int rng (tenants - 1);
    fmem = pick rng [ 64; 128; 256 ];
    quantum = pick rng [ 128; 256 ];
    seed = Rng.int rng 1_000_000;
    fault_seed = Rng.int rng 1_000_000;
    workloads = List.init tenants (fun _ -> pick rng workload_pool);
    shares = List.init tenants (fun _ -> 1 + Rng.int rng 3);
    quotas = [ 0 ];
    gbps = pick rng [ 0.5; 1.0; 2.0 ];
  }

let shmem_op rng ~setup ~crashes ~published =
  let publish () = Spec.Publish { pages = 8 + Rng.int rng 24 } in
  match Rng.int rng 12 with
  | 0 | 1 | 2 -> Spec.Run { n = 256 * (1 + Rng.int rng 6) }
  | 3 | 4 | 5 ->
      if published then Spec.Mwrite { rounds = 8 + Rng.int rng 24 }
      else publish ()
  | 6 | 7 ->
      if published then Spec.Shm_rpc { calls = 4 + Rng.int rng 12 }
      else publish ()
  | 8 when !crashes < setup.Spec.replicas ->
      (* with the segment published, this can be the node homing the
         current owner's lines: the handoff state must survive failover *)
      incr crashes;
      Spec.Crash { id = Rng.int rng setup.Spec.nodes }
  | 9 ->
      Spec.Partition
        {
          dur_ns = 1_000 * (20 + Rng.int rng 80);
          ids = [ Rng.int rng setup.Spec.nodes ];
        }
  | 10 -> Spec.Flap { dur_ns = 1_000 * (10 + Rng.int rng 50) }
  | _ ->
      if published then Spec.Shared { rounds = 4 + Rng.int rng 12 }
      else publish ()

let generate ~seed ~ops =
  let rng = Rng.create ~seed in
  let family = Rng.int rng 3 in
  let setup =
    match family with
    | 0 -> corruption_setup rng
    | 1 -> ops_setup rng
    | _ -> shmem_setup rng
  in
  let crashes = ref 0 and adds = ref 0 and published = ref false in
  let n = max 1 ops in
  let op_list =
    List.init n (fun i ->
        let op =
          if i = 0 then Spec.Run { n = 256 * (1 + Rng.int rng 4) }
          else
            match family with
            | 0 -> corruption_op rng ~published:!published
            | 1 -> ops_op rng ~setup ~crashes ~adds ~published:!published
            | _ -> shmem_op rng ~setup ~crashes ~published:!published
        in
        (match op with Spec.Publish _ -> published := true | _ -> ());
        op)
  in
  { Spec.setup; ops = op_list }
