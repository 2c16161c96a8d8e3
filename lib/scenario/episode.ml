module Rack = Kona_rack.Rack
module Rack_controller = Kona.Rack_controller
module Runtime = Kona.Runtime
module Workloads = Kona_workloads.Workloads
module Shm_rpc = Kona_shmem.Shm_rpc

type outcome = {
  oc_fingerprint : string;
  oc_violations : Invariants.violation list;
  oc_aborted : string option;
  oc_integrity : (string * int) list;
  oc_shm_rpc : Shm_rpc.stats option;
  oc_result : Rack.result option;
}

let nth_cyclic l i default =
  match l with [] -> default | _ -> List.nth l (i mod List.length l)

(* The rack a spec describes.  Its timed clauses are hoisted into the
   start-time calendar: they fire by virtual time, wherever they sit in
   the op list.  Range checks are the grammar's and [Rack.start]'s. *)
let config_of (spec : Spec.t) =
  let s = spec.Spec.setup in
  {
    Rack.scale = Workloads.Smoke;
    nodes = s.Spec.nodes;
    node_capacity = s.Spec.node_cap;
    node_gbps = s.Spec.gbps;
    replicas = s.Spec.replicas;
    faults =
      List.filter_map (function Spec.Fault_at c -> Some c | _ -> None) spec.Spec.ops;
    fault_seed = s.Spec.fault_seed;
    shared_pages = s.Spec.shared_pages;
    shared_ops = s.Spec.shared_ops;
    shared_writers = s.Spec.writers;
    quantum = s.Spec.quantum;
    policy = s.Spec.policy;
    fast_nodes = s.Spec.fast_nodes;
    slow_extra_ns = s.Spec.slow_extra_ns;
    ops =
      List.filter_map (function Spec.Rack_at c -> Some c | _ -> None) spec.Spec.ops;
    runtime =
      {
        Runtime.default_config with
        fmem_pages = s.Spec.fmem;
        scrub_interval_ns =
          (if s.Spec.scrub_ns > 0 then Some s.Spec.scrub_ns else None);
        verify_checksums = s.Spec.verify;
        heartbeat_ns =
          (if s.Spec.heartbeat_ns > 0 then Some s.Spec.heartbeat_ns else None);
        lease_ns = s.Spec.lease_ns;
      };
  }

let tenants_of (s : Spec.setup) =
  List.init s.Spec.tenants (fun i ->
      let workload = nth_cyclic s.Spec.workloads i "kv-seq" in
      {
        Rack.name = Printf.sprintf "t%d-%s" i workload;
        workload;
        bw_share = nth_cyclic s.Spec.shares i 1;
        mem_quota =
          (match nth_cyclic s.Spec.quotas i 0 with 0 -> None | q -> Some q);
        seed = s.Spec.seed + i;
      })

(* [rpc] keeps the stats of the last shared-memory RPC ring. *)
let apply_op ~rpc e op =
  match op with
  | Spec.Run { n } ->
      let consumed = ref 0 in
      let continue_ = ref true in
      while !continue_ && !consumed < n do
        let c = Rack.step e in
        if c = 0 then continue_ := false else consumed := !consumed + c
      done
  | Spec.Crash { id } -> Rack.crash_node e ~id
  | Spec.Flap { dur_ns } -> Rack.flap_links e ~dur_ns
  | Spec.Partition { dur_ns; ids } -> Rack.partition_nodes e ~dur_ns ~ids
  | Spec.Corrupt clause -> Rack.arm_fault e clause
  | Spec.Quota { tenant; bytes } ->
      if tenant < Rack.tenant_count e then
        (* Never set a cap below what is already charged: admission of
           bytes the tenant holds must stay well-defined. *)
        Rack.set_tenant_quota e ~tenant
          ~bytes:(max bytes (Rack.tenant_used e ~tenant))
  | Spec.Publish { pages } -> Rack.publish e ~pages
  | Spec.Shared { rounds } ->
      for _ = 1 to rounds do
        Rack.shared_round e
      done
  | Spec.Mwrite { rounds } ->
      for _ = 1 to rounds do
        Rack.multi_writer_round e
      done
  | Spec.Shm_rpc { calls } ->
      (* fixed roles: tenant 1 calls into tenant 0; a one-tenant rack has
         no peer to ring, so the op degenerates to a no-op *)
      if Rack.tenant_count e >= 2 then
        rpc := Some (Shm_rpc.run e ~client:1 ~server:0 ~calls ())
  | Spec.Scrub ->
      Rack.flush_logs e;
      Rack.force_scrub e
  | Spec.Rack op -> Rack.apply_op e op
  | Spec.Migrate_epoch -> Rack.force_migration e
  | Spec.Fault_at _ | Spec.Rack_at _ -> () (* on the calendar since start *)

let fingerprint (r : Rack.result) =
  Array.to_list r.Rack.r_tenants
  |> List.map (fun (tr : Rack.tenant_result) -> tr.Rack.t_fingerprint)
  |> String.concat "|"
  |> Digest.string
  |> Digest.to_hex

let abort_of_exn = function
  | Rack_controller.Quota_exceeded { tenant; quota; used; requested } ->
      Some
        (Printf.sprintf "quota-exceeded: tenant %s at %d/%d, requested %d"
           tenant used quota requested)
  | Out_of_memory -> Some "out-of-memory: a node's capacity ran out"
  | Kona_rdma.Rpc.Timeout_exhausted { attempts } ->
      Some
        (Printf.sprintf
           "rpc-timeout: a control-plane call gave up after %d attempts"
           attempts)
  | Kona_rdma.Qp.Retry_exhausted { attempts } ->
      Some
        (Printf.sprintf "retry-exhausted: a queue pair gave up after %d attempts"
           attempts)
  | _ -> None

let execute ?plant ?(check_end = true) (spec : Spec.t) =
  let config = config_of spec in
  let tenants = tenants_of spec.Spec.setup in
  let violations = ref [] in
  let rpc = ref None in
  let aborted = ref None in
  let result = ref None in
  let engine = ref None in
  (try
     let e = Rack.start config tenants in
     engine := Some e;
     let ctx result = { Invariants.engine = e; spec; result } in
     let boundary () =
       match Invariants.check Invariants.Boundary (ctx None) with
       | [] -> true
       | vs ->
           violations := vs;
           false
     in
     let rec apply ops i =
       match ops with
       | [] -> true
       | op :: rest ->
           apply_op ~rpc e op;
           (match plant with Some f -> f i op e | None -> ());
           boundary () && apply rest (i + 1)
     in
     if apply spec.Spec.ops 0 && check_end then begin
       (* The shadow-heap oracle compares final bytes: the replay must
          run to exhaustion before the divergence check means anything. *)
       while Rack.step e > 0 do
         ()
       done;
       let r = Rack.finish e in
       result := Some r;
       violations :=
         Invariants.check Invariants.Boundary (ctx (Some r))
         @ Invariants.check Invariants.End (ctx (Some r))
     end
   with e -> (
     match abort_of_exn e with Some why -> aborted := Some why | None -> raise e));
  {
    oc_fingerprint =
      (match !result with Some r -> fingerprint r | None -> "");
    oc_violations = !violations;
    oc_aborted = !aborted;
    oc_integrity =
      (match !engine with
      | Some e -> Runtime.integrity_counters (Rack.runtime e ~tenant:0)
      | None -> []);
    oc_shm_rpc = !rpc;
    oc_result = !result;
  }

let passed o = o.oc_violations = []
