open Kona_util

(* Lease-based failure detection over the virtual clock (control path).

   Every tracked node owes the detector a heartbeat each [heartbeat_ns];
   the detector evaluates the quantized heartbeat instants that have
   passed since the last [tick], asking [reachable] whether the node
   could deliver one at that instant.  Reachability is the caller's
   composition of fail-stop state and partition windows — the detector
   itself cannot tell a crashed node from a partitioned one, which is
   exactly the point: after [2 * lease_ns] of silence it declares the
   node dead either way, and a wrong guess (the node was merely
   partitioned) is a {e false positive} the fencing machinery must
   absorb. *)

type state = Alive | Suspected | Dead

type entry = {
  id : int;
  mutable st : state;
  mutable last_heartbeat : int; (* instant of the last heartbeat received *)
  mutable next_beat : int; (* next quantized instant to evaluate *)
  mutable fp_counted : bool; (* this Dead node already proved us wrong *)
}

type t = {
  heartbeat_ns : int;
  lease_ns : int;
  reachable : id:int -> at:int -> bool;
  on_dead : id:int -> at:int -> unit;
  charge : ns:int -> unit;
  mutable nodes : entry list; (* tracking order; racks track a handful *)
  mutable next_due : int; (* the least [next_beat] of [nodes]; max_int if none *)
  detect_latency : Histogram.t;
  mutable heartbeats : int;
  mutable suspicions : int;
  mutable suspicions_cleared : int;
  mutable declared_dead : int;
  mutable false_positives : int;
}

(* Control-path cost of receiving and evaluating one heartbeat. *)
let heartbeat_cost_ns = 100

let create ~heartbeat_ns ~lease_ns ~reachable ~on_dead ~charge () =
  if heartbeat_ns <= 0 then invalid_arg "Membership: heartbeat_ns must be positive";
  if lease_ns < heartbeat_ns then
    invalid_arg "Membership: lease_ns must be >= heartbeat_ns";
  {
    heartbeat_ns;
    lease_ns;
    reachable;
    on_dead;
    charge;
    nodes = [];
    next_due = max_int;
    detect_latency = Histogram.create ();
    heartbeats = 0;
    suspicions = 0;
    suspicions_cleared = 0;
    declared_dead = 0;
    false_positives = 0;
  }

let track t ~id ~now =
  if not (List.exists (fun e -> e.id = id) t.nodes) then begin
    (* First owed beat is the next quantized instant. *)
    let next_beat = ((now / t.heartbeat_ns) + 1) * t.heartbeat_ns in
    t.nodes <-
      t.nodes @ [ { id; st = Alive; last_heartbeat = now; next_beat; fp_counted = false } ];
    if next_beat < t.next_due then t.next_due <- next_beat
  end

let state t ~id =
  List.find_opt (fun e -> e.id = id) t.nodes |> Option.map (fun e -> e.st)

let tick_entry t e ~now =
  while e.next_beat <= now do
    let at = e.next_beat in
    e.next_beat <- e.next_beat + t.heartbeat_ns;
    t.charge ~ns:heartbeat_cost_ns;
    if t.reachable ~id:e.id ~at then begin
      t.heartbeats <- t.heartbeats + 1;
      e.last_heartbeat <- at;
      match e.st with
      | Alive -> ()
      | Suspected ->
          (* The lease was renewed in time: suspicion clears quietly. *)
          e.st <- Alive;
          t.suspicions_cleared <- t.suspicions_cleared + 1
      | Dead ->
          (* A declared-dead node is heartbeating again: we failed over
             away from a live node.  The declaration stands (its store
             is fenced); the comeback is counted once. *)
          if not e.fp_counted then begin
            e.fp_counted <- true;
            t.false_positives <- t.false_positives + 1
          end
    end
    else begin
      let age = at - e.last_heartbeat in
      (match e.st with
      | Alive when age > t.lease_ns ->
          e.st <- Suspected;
          t.suspicions <- t.suspicions + 1
      | _ -> ());
      if e.st = Suspected && age > 2 * t.lease_ns then begin
        e.st <- Dead;
        t.declared_dead <- t.declared_dead + 1;
        Histogram.add t.detect_latency age;
        t.on_dead ~id:e.id ~at
      end
    end
  done

(* The owner ticks on every access; until the earliest owed beat is
   reached there is nothing to evaluate, so skip the walk. *)
let tick t ~now =
  if now >= t.next_due then begin
    List.iter (fun e -> tick_entry t e ~now) t.nodes;
    t.next_due <-
      List.fold_left (fun due e -> if e.next_beat < due then e.next_beat else due) max_int t.nodes
  end

let next_due t = t.next_due
let detect_latency t = t.detect_latency
let heartbeats t = t.heartbeats
let suspicions t = t.suspicions
let suspicions_cleared t = t.suspicions_cleared
let declared_dead t = t.declared_dead
let false_positives t = t.false_positives
