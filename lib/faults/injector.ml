open Kona_util

type delivery_fault = {
  torn : (int * int) option; (* (target pick, entry pick) *)
  flip : (int * int * int * int) option; (* (target, entry, line, bit picks) *)
  dup : bool;
}

type t = {
  qp_rng : Rng.t;
  rpc_rng : Rng.t;
  dlv_rng : Rng.t;
  read_rng : Rng.t;
  (* Probabilities are mutable so clauses can be armed mid-run (scenario
     engine) by the same rule [create] arms its plan with.  The RNG
     streams are carved off at [create] independent of the plan, so
     arming later never perturbs the draw sequence of already-armed
     categories. *)
  mutable p_drop : float;
  mutable p_delay : float;
  mutable delay_ns : int;
  mutable p_rpc : float;
  mutable p_flip : float;
  mutable p_torn : float;
  mutable p_stale : float;
  mutable p_dup : float;
  mutable crashes : (int * int) list; (* (at_ns, id), sorted by time *)
  (* (at_ns, dur_ns, ids), sorted by time: scheduled asymmetric
     partitions, handed out as they come due like crashes. *)
  mutable partitions : (int * int * int list) list;
  mutable node_crashes : int;
  mutable link_flaps_applied : int;
  mutable rpc_timeouts : int;
  mutable wqe_drops : int;
  mutable wqe_delays : int;
  mutable bit_flips : int;
  mutable torn_writes : int;
  mutable stale_reads : int;
  mutable dup_delivers : int;
  mutable partitions_applied : int;
}

(* Independent clauses of the same kind compose as independent events. *)
let combine p q = 1. -. ((1. -. p) *. (1. -. q))

let arm t clause =
  match clause with
  | Fault_spec.Node_crash { at_ns; id } ->
      t.crashes <- List.sort compare ((at_ns, id) :: t.crashes)
  | Fault_spec.Link_flap _ ->
      (* The NIC owns the outage window; the caller installs it. *)
      t.link_flaps_applied <- t.link_flaps_applied + 1
  | Fault_spec.Partition { at_ns; dur_ns; ids } ->
      t.partitions <- List.sort compare ((at_ns, dur_ns, ids) :: t.partitions)
  | Fault_spec.Rpc_timeout { p } -> t.p_rpc <- combine t.p_rpc p
  | Fault_spec.Wqe_drop { p } -> t.p_drop <- combine t.p_drop p
  | Fault_spec.Wqe_delay { p; delay_ns = d } ->
      t.p_delay <- combine t.p_delay p;
      t.delay_ns <- max t.delay_ns d
  | Fault_spec.Bit_flip { p } -> t.p_flip <- combine t.p_flip p
  | Fault_spec.Torn_write { p } -> t.p_torn <- combine t.p_torn p
  | Fault_spec.Stale_read { p } -> t.p_stale <- combine t.p_stale p
  | Fault_spec.Dup_deliver { p } -> t.p_dup <- combine t.p_dup p

let create ~seed ~plan =
  let root = Rng.create ~seed in
  (* Split order is ABI: streams must be carved off in the same order
     forever, and new streams appended after the existing ones, so an
     old (plan, seed) pair keeps reproducing the exact same faults. *)
  let qp_rng = Rng.split root in
  let rpc_rng = Rng.split root in
  let dlv_rng = Rng.split root in
  let read_rng = Rng.split root in
  let t =
    {
      qp_rng;
      rpc_rng;
      dlv_rng;
      read_rng;
      p_drop = 0.;
      p_delay = 0.;
      delay_ns = 0;
      p_rpc = 0.;
      p_flip = 0.;
      p_torn = 0.;
      p_stale = 0.;
      p_dup = 0.;
      crashes = [];
      partitions = [];
      node_crashes = 0;
      link_flaps_applied = 0;
      rpc_timeouts = 0;
      wqe_drops = 0;
      wqe_delays = 0;
      bit_flips = 0;
      torn_writes = 0;
      stale_reads = 0;
      dup_delivers = 0;
      partitions_applied = 0;
    }
  in
  List.iter (arm t) plan;
  t

let qp_inject t () =
  if t.p_drop = 0. && t.p_delay = 0. then None
  else begin
    (* Draws happen only for configured categories; a drop beats a delay
       when both fire (the lost attempt is retransmitted anyway). *)
    let drop = t.p_drop > 0. && Rng.float t.qp_rng 1.0 < t.p_drop in
    let delay = t.p_delay > 0. && Rng.float t.qp_rng 1.0 < t.p_delay in
    if drop then begin
      t.wqe_drops <- t.wqe_drops + 1;
      Some `Drop
    end
    else if delay then begin
      t.wqe_delays <- t.wqe_delays + 1;
      Some (`Delay t.delay_ns)
    end
    else None
  end

let corruption_armed t =
  t.p_flip > 0. || t.p_torn > 0. || t.p_dup > 0.

let delivery_inject t ~targets =
  if not (corruption_armed t) then None
  else begin
    (* One decision per shipment per category.  The picks are raw draws;
       the CL log reduces them modulo its entry/line counts so the
       injector stays ignorant of shipment shapes (and the stream stays
       identical across shipment sizes). *)
    let torn =
      if t.p_torn > 0. && Rng.float t.dlv_rng 1.0 < t.p_torn then begin
        t.torn_writes <- t.torn_writes + 1;
        Some (Rng.int t.dlv_rng targets, Rng.int t.dlv_rng 1_000_000)
      end
      else None
    in
    let flip =
      if t.p_flip > 0. && Rng.float t.dlv_rng 1.0 < t.p_flip then begin
        t.bit_flips <- t.bit_flips + 1;
        Some
          ( Rng.int t.dlv_rng targets,
            Rng.int t.dlv_rng 1_000_000,
            Rng.int t.dlv_rng 1_000_000,
            Rng.int t.dlv_rng 512 )
      end
      else None
    in
    let dup =
      t.p_dup > 0.
      && Rng.float t.dlv_rng 1.0 < t.p_dup
      && begin
           t.dup_delivers <- t.dup_delivers + 1;
           true
         end
    in
    if torn = None && flip = None && not dup then None
    else Some { torn; flip; dup }
  end

let read_inject t () =
  t.p_stale > 0.
  && Rng.float t.read_rng 1.0 < t.p_stale
  && begin
       t.stale_reads <- t.stale_reads + 1;
       true
     end

let stale_reads_armed t = t.p_stale > 0.

let rpc_timeout t () =
  t.p_rpc > 0.
  && Rng.float t.rpc_rng 1.0 < t.p_rpc
  && begin
       t.rpc_timeouts <- t.rpc_timeouts + 1;
       true
     end

let crashes_pending t = List.length t.crashes

let due_node_crashes t ~now =
  match t.crashes with
  | [] -> []
  | _ ->
      let due, pending = List.partition (fun (at, _) -> at <= now) t.crashes in
      t.crashes <- pending;
      List.map snd due

let count_crash t = t.node_crashes <- t.node_crashes + 1

let partitions_pending t = List.length t.partitions

let due_partitions t ~now =
  match t.partitions with
  | [] -> []
  | _ ->
      let due, pending =
        List.partition (fun (at, _, _) -> at <= now) t.partitions
      in
      t.partitions <- pending;
      t.partitions_applied <- t.partitions_applied + List.length due;
      List.map (fun (_, dur_ns, ids) -> (dur_ns, ids)) due

let counters t =
  [
    ("node_crashes", t.node_crashes);
    ("link_flaps", t.link_flaps_applied);
    ("rpc_timeouts", t.rpc_timeouts);
    ("wqe_drops", t.wqe_drops);
    ("wqe_delays", t.wqe_delays);
    ("bit_flips", t.bit_flips);
    ("torn_writes", t.torn_writes);
    ("stale_reads", t.stale_reads);
    ("dup_delivers", t.dup_delivers);
    ("partitions", t.partitions_applied);
  ]

let injected t = List.fold_left (fun acc (_, v) -> acc + v) 0 (counters t)
