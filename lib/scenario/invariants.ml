module Rack = Kona_rack.Rack
module Rack_controller = Kona.Rack_controller
module Resource_manager = Kona.Resource_manager
module Memory_node = Kona.Memory_node
module Runtime = Kona.Runtime
module Injector = Kona_faults.Injector
module Membership = Kona_membership.Membership
module Units = Kona_util.Units

type scope = Boundary | End

type ctx = {
  engine : Rack.engine;
  spec : Spec.t;
  result : Rack.result option;  (** [Some] only for [End] checks *)
}

type violation = { inv : string; detail : string }

type t = { name : string; scope : scope; doc : string; check : ctx -> string list }

let find k l = try List.assoc k l with Not_found -> 0

(* Crashes the spec asks for, positional or timed. *)
let crash_ops spec =
  List.length
    (List.filter
       (function
         | Spec.Crash _ | Spec.Fault_at (Kona_faults.Fault_spec.Node_crash _) -> true
         | _ -> false)
       spec.Spec.ops)

(* ------------------------------------------------------------------ *)

(* Node bookkeeping: the rack always has at least one node, the fast
   tier never outgrows it, and every registered node's break pointer
   stays inside its capacity. *)
let node_accounting ctx =
  let e = ctx.engine in
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  if Rack.node_count e < 1 then add "rack has %d nodes" (Rack.node_count e);
  if Rack.fast_node_count e > Rack.node_count e then
    add "fast tier (%d) larger than the rack (%d)" (Rack.fast_node_count e)
      (Rack.node_count e);
  List.iter
    (fun node ->
      let id = Memory_node.id node in
      let used = Memory_node.used node and cap = Memory_node.capacity node in
      if used < 0 || used > cap then
        add "node %d used %d outside [0,%d]" id used cap;
      if Memory_node.free_bytes node <> cap - used then
        add "node %d free_bytes inconsistent with used" id)
    (Rack_controller.nodes (Rack.controller e));
  List.rev !bad

(* Quota conservation: every slab the controller has handed out is owned
   by some tenant's resource manager (physical identity, shared-segment
   mappings deduplicated), the controller's per-tenant charges sum to
   exactly those slabs, and no tenant exceeds its cap.  Migration and
   drains move pages, never slabs, so this holds across every op. *)
let quota_conservation ctx =
  let e = ctx.engine in
  let c = Rack.controller e in
  let slab_size = Rack_controller.slab_size c in
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let owned = ref [] in
  let charged = ref 0 in
  for i = 0 to Rack.tenant_count e - 1 do
    let rm = Runtime.resource_manager (Rack.runtime e ~tenant:i) in
    List.iter
      (fun slab -> if not (List.memq slab !owned) then owned := slab :: !owned)
      (Resource_manager.slabs rm);
    let used = Rack.tenant_used e ~tenant:i in
    if used < 0 then add "tenant %d charged %d bytes" i used;
    charged := !charged + used;
    let name = (Rack.tenant_cfgs e).(i).Rack.name in
    match Rack_controller.quota c ~tenant:name with
    | Some q when used > q -> add "tenant %d used %d over quota %d" i used q
    | Some _ | None -> ()
  done;
  let allocated = Rack_controller.slabs_allocated c in
  if allocated <> List.length !owned then
    add "%d slab(s) allocated but %d owned by resource managers" allocated
      (List.length !owned);
  if !charged <> allocated * slab_size then
    add "charges total %d bytes but %d slab(s) of %d were allocated" !charged
      allocated slab_size;
  List.rev !bad

(* Page-table / replication coherence: every backed page translates to a
   node the controller knows, at an address inside that node's capacity;
   and when the replication degree covers every crash in the spec,
   failover must have kept each page's home alive. *)
let placement_coherence ctx =
  let e = ctx.engine in
  let c = Rack.controller e in
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let require_alive = crash_ops ctx.spec <= ctx.spec.Spec.setup.Spec.replicas in
  (* With lease-based membership, a crashed home is only a violation once
     the detector has declared that store dead AND its queued failover
     finished — mid-lease (or mid-recovery) boundaries legitimately see
     pages homed on a dead store. *)
  let converged_dead n =
    match Runtime.membership (Rack.runtime e ~tenant:0) with
    | None -> true
    | Some m ->
        Membership.state m ~id:(Memory_node.id n) = Some Membership.Dead
        && Rack.recovery_idle e
  in
  for i = 0 to Rack.tenant_count e - 1 do
    let rm = Runtime.resource_manager (Rack.runtime e ~tenant:i) in
    Resource_manager.iter_backed_pages rm (fun ~vpage ~node ~remote_addr ->
        match Rack_controller.node c ~id:node with
        | exception _ ->
            add "tenant %d page %d homed on unknown node %d" i vpage node
        | n ->
            if remote_addr < 0
               || remote_addr + Units.page_size > Memory_node.capacity n
            then
              add "tenant %d page %d at %#x outside node %d (cap %d)" i vpage
                remote_addr node (Memory_node.capacity n)
            else if
              require_alive && (not (Memory_node.alive n)) && converged_dead n
            then
              add "tenant %d page %d homed on dead node %d despite %d replica(s)"
                i vpage node ctx.spec.Spec.setup.Spec.replicas)
  done;
  List.rev !bad

(* Shadow-heap oracle: the divergence check [Rack.finish] runs per
   tenant found no mismatched byte, and pages only go unreachable when a
   node actually crashed. *)
let shadow_heap ctx =
  match ctx.result with
  | None -> []
  | Some r ->
      let bad = ref [] in
      let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
      Array.iteri
        (fun i (tr : Rack.tenant_result) ->
          if tr.Rack.t_mismatches > 0 then
            add "tenant %d: %d page(s) diverged from the shadow heap" i
              tr.Rack.t_mismatches;
          if tr.Rack.t_lost_pages > 0 && r.Rack.r_node_crashes = 0 then
            add "tenant %d lost %d page(s) without any node crash" i
              tr.Rack.t_lost_pages)
        r.Rack.r_tenants;
      List.rev !bad

(* Integrity accounting (the soak harness's detection ledger): every
   injected torn write, duplicate delivery and stale read was reported,
   and every armed bit-flip was found or healed by a clean overwrite.
   Only exact when nothing moved pages out from under the detectors —
   failover, migration and drains re-copy data through paths that heal
   corruption silently — and no delivery was lost outright. *)
let integrity_accounting ctx =
  match ctx.result with
  | None -> []
  | Some r -> (
      let e = ctx.engine in
      let rt = Rack.runtime e ~tenant:0 in
      let injected = Injector.counters (Runtime.injector rt) in
      let exact =
        r.Rack.r_node_crashes = 0
        && r.Rack.r_migrations = 0
        && r.Rack.r_drained_pages = 0
        && Rack.drain_failures e = 0
        && find "log.lost_writes" (Runtime.stats rt) = 0
        (* a partition defers deliveries across the detectors' replay
           and a membership failover re-copies pages wholesale — both
           heal or reject corruption outside the detection ledger *)
        && find "partitions" injected = 0
        && Runtime.count rt "membership.declared_dead" = 0
      in
      if not exact then []
      else begin
        let counters = Runtime.integrity_counters rt in
        let bad = ref [] in
        let expect what got want =
          if got <> want then
            bad := Printf.sprintf "%s: %d, expected %d" what got want :: !bad
        in
        expect "torn events detected vs injected"
          (find "integrity.torn_events" counters)
          (find "torn_writes" injected);
        expect "duplicate deliveries detected vs injected"
          (find "seq.duplicates" counters)
          (find "dup_delivers" injected);
        expect "stale reads detected vs injected"
          (find "integrity.stale_reads" counters)
          (find "stale_reads" injected);
        expect "armed bit-flips accounted (found + healed)"
          (find "integrity.flips_armed" counters)
          (find "integrity.flips_found" counters
          + find "integrity.healed_overwrite" counters);
        List.rev !bad
      end)

(* Split-brain exclusion: for every logical slot, the store currently
   backing it is the only one allowed to be alive and unfenced.  Every
   former backing — displaced by a failover — must be either actually
   crashed or fenced at a failover epoch; a falsely-declared-dead node
   returning from a partition shows up here alive, and MUST be fenced. *)
let at_most_one_primary ctx =
  let e = ctx.engine in
  let c = Rack.controller e in
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  List.iter
    (fun id ->
      let backing = Rack_controller.node c ~id in
      List.iter
        (fun f ->
          if Memory_node.alive f && not (Memory_node.fenced f) then
            add
              "slot %d: former backing %d is alive and unfenced alongside \
               backing %d"
              id (Memory_node.id f) (Memory_node.id backing))
        (Rack_controller.former_backings c ~id))
    (Rack_controller.logical_ids c);
  List.rev !bad

(* Fences are absolute: a fenced store never absorbs another line, not
   even from a delivery stamped at the current epoch. *)
let no_post_fence_write ctx =
  let rt = Rack.runtime ctx.engine ~tenant:0 in
  let n = Runtime.count rt "fencing.post_fence_writes" in
  if n > 0 then
    [ Printf.sprintf "%d line(s) were applied to fenced stores" n ]
  else []

(* Interruptible recovery must converge: once the episode has drained,
   no resumable task (failover, re-replication, rack drain) is still
   queued and no partition-deferred delivery is still parked — whatever
   overlapping faults interrupted them mid-run. *)
let recovery_convergence ctx =
  match ctx.result with
  | None -> []
  | Some _ ->
      let e = ctx.engine in
      let bad = ref [] in
      let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
      (match Rack.recovery_pending e with
      | [] -> ()
      | pending ->
          add "unfinished recovery task(s): %s" (String.concat ", " pending));
      for i = 0 to Rack.tenant_count e - 1 do
        let d = Runtime.deferred_pending (Rack.runtime e ~tenant:i) in
        if d > 0 then
          add "tenant %d still holds %d deferred deliveries after drain" i d
      done;
      List.rev !bad

(* WFQ sanity: no tenant's achieved rate beats the link, contended bytes
   are a subset of admitted bytes, and saturation never exceeds the
   admit count. *)
let wfq_bounds ctx =
  match ctx.result with
  | None -> []
  | Some r ->
      let gbps = ctx.spec.Spec.setup.Spec.gbps in
      let bad = ref [] in
      let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
      Array.iteri
        (fun i (tr : Rack.tenant_result) ->
          if tr.Rack.t_achieved_gbps > (gbps *. 1.0001) +. 1e-6 then
            add "tenant %d achieved %.3f Gbit/s over the %.3f Gbit/s link" i
              tr.Rack.t_achieved_gbps gbps;
          if tr.Rack.t_contended_bytes > tr.Rack.t_admitted_bytes then
            add "tenant %d contended %d bytes but admitted only %d" i
              tr.Rack.t_contended_bytes tr.Rack.t_admitted_bytes;
          if tr.Rack.t_delay_ns < 0 then
            add "tenant %d negative queueing delay %d" i tr.Rack.t_delay_ns)
        r.Rack.r_tenants;
      if r.Rack.r_saturated_admits > r.Rack.r_total_admits then
        add "%d saturated admits out of %d total" r.Rack.r_saturated_admits
          r.Rack.r_total_admits;
      List.rev !bad

(* Single owner per line: the multi-writer MSI home table must stay
   internally coherent at every op boundary — at most one tenant holds a
   line Modified, no other tracked copy survives a grant, owners are
   real tenants. *)
let single_owner_per_line ctx = Rack.coherence_audit ctx.engine

(* Readers observe the last write: after drain, every readable shared
   page's remote bytes equal the per-line last-writer-wins image under
   the virtual-clock total order — however many tenants wrote it. *)
let readers_observe_last_write ctx =
  match ctx.result with
  | None -> []
  | Some _ ->
      let n = Rack.shared_divergence ctx.engine in
      if n > 0 then
        [
          Printf.sprintf
            "%d shared page(s) diverged from the last-writer-wins image" n;
        ]
      else []

let registry =
  [
    {
      name = "node-accounting";
      scope = Boundary;
      doc = "node count, fast-tier size and per-node break pointers stay sane";
      check = node_accounting;
    };
    {
      name = "quota-conservation";
      scope = Boundary;
      doc =
        "every allocated slab is owned by a resource manager and per-tenant \
         charges sum to exactly the allocated slabs, within quota";
      check = quota_conservation;
    };
    {
      name = "placement-coherence";
      scope = Boundary;
      doc =
        "every backed page translates into a registered node's address \
         space; failover keeps homes alive when replicas cover the crashes";
      check = placement_coherence;
    };
    {
      name = "shadow-heap";
      scope = End;
      doc = "remote memory is byte-identical to each tenant's heap after drain";
      check = shadow_heap;
    };
    {
      name = "integrity-accounting";
      scope = End;
      doc =
        "injected corruption is detected or healed, exactly, when no page \
         moved out from under the detectors";
      check = integrity_accounting;
    };
    {
      name = "at-most-one-primary";
      scope = Boundary;
      doc =
        "every displaced former backing is crashed or fenced — a returning \
         false positive never serves alongside its successor";
      check = at_most_one_primary;
    };
    {
      name = "no-post-fence-write";
      scope = Boundary;
      doc = "no line is ever applied to a fenced store";
      check = no_post_fence_write;
    };
    {
      name = "recovery-convergence";
      scope = End;
      doc =
        "after drain no resumable recovery task is queued and no deferred \
         delivery is parked, however faults overlapped";
      check = recovery_convergence;
    };
    {
      name = "wfq-bounds";
      scope = End;
      doc = "achieved rates, contended bytes and saturation respect the link";
      check = wfq_bounds;
    };
    {
      name = "single-owner-per-line";
      scope = Boundary;
      doc =
        "the multi-writer MSI directory grants each shared line to at most \
         one owner, with no stale copy or non-tenant owner";
      check = single_owner_per_line;
    };
    {
      name = "readers-observe-last-write";
      scope = End;
      doc =
        "after drain, shared pages match the per-line last-writer-wins image \
         under the virtual-clock total order";
      check = readers_observe_last_write;
    };
  ]

let names = List.map (fun i -> i.name) registry

let check scope ctx =
  List.concat_map
    (fun i ->
      if i.scope <> scope then []
      else List.map (fun detail -> { inv = i.name; detail }) (i.check ctx))
    registry
