type t = {
  mutable busy_until : int;
  mutable outages : (int * int) list; (* (start, end), sorted by start *)
  (* Telemetry: shared-port contention is the quantity Fig. 11's goodput
     story turns on, so the NIC accounts for it directly. *)
  mutable ops : int;
  mutable busy_ns : int;
  mutable stall_ns : int;
}

let create () = { busy_until = 0; outages = []; ops = 0; busy_ns = 0; stall_ns = 0 }

let inject_outage t ~at ~duration =
  assert (duration > 0);
  t.outages <- List.sort compare ((at, at + duration) :: t.outages)

let rec skip_outages outages time =
  match outages with
  | (s, e) :: rest when time >= s -> skip_outages rest (max time e)
  | _ -> time

let occupy t ~start ~duration =
  let actual = skip_outages t.outages (max start t.busy_until) in
  t.busy_until <- actual + duration;
  t.ops <- t.ops + 1;
  t.busy_ns <- t.busy_ns + duration;
  (* Everything between the requested start and the actual one is a stall:
     the port was serializing someone else's batch or riding out an
     outage. *)
  t.stall_ns <- t.stall_ns + (actual - start);
  actual

let outage_total t = List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 t.outages

let ops t = t.ops
let busy_ns t = t.busy_ns
let stall_ns t = t.stall_ns
