open Kona_util

type op = Read | Write

type wqe = {
  op : op;
  len : int;
  signaled : bool;
  deliver : unit -> unit;
  node : int option;
}

let wqe ?(signaled = false) ?(deliver = fun () -> ()) ?node op ~len =
  assert (len >= 0);
  { op; len; signaled; deliver; node }

type retry = { rx_timeout_ns : int; retry_limit : int; backoff_cap : int }

(* Defaults mirror RNR-retry practice: a short retransmission timer,
   seven retries, backoff doubling capped at 16x. *)
let default_retry = { rx_timeout_ns = 8_000; retry_limit = 7; backoff_cap = 4 }

(* The transport's view of the stack-wide backoff policy. *)
let retry_of (b : Backoff.config) =
  {
    rx_timeout_ns = b.Backoff.base_ns;
    retry_limit = b.Backoff.qp_retry_max;
    backoff_cap = b.Backoff.cap_shift;
  }

exception Retry_exhausted of { attempts : int }

(* A posted WQE awaiting its completion time.  Batches occupy the wire in
   post order; injected retransmission delays are clamped monotone (a
   reliable connection delivers in order, so a retransmitted WQE holds
   back everything behind it) and a FIFO queue stays clock-ordered. *)
type pending = { finish : int; p_signaled : bool; p_deliver : unit -> unit }

type t = {
  cost : Cost.t;
  clock : Clock.t;
  nic : Nic.t;
  sq_depth : int option; (* modeled send-queue depth; None = unbounded *)
  signal_interval : int; (* raise a CQE every Nth signal-requested WQE *)
  inject : (unit -> [ `Drop | `Delay of int ] option) option;
  arbitrate : (node:int option -> op:op -> len:int -> now:int -> int) option;
  retry : retry;
  sq : pending Queue.t; (* posted, not yet completed (clock-ordered) *)
  cq : int Queue.t; (* completion times of signaled WQEs, ready to reap *)
  mutable since_signal : int;
  mutable nic_free_at : int; (* this QP's wire busy until *)
  mutable last_completion : int;
  mutable payload_bytes : int;
  mutable wire_bytes : int;
  mutable posts : int;
  mutable verbs : int;
  mutable signaled : int;
  mutable completed : int;
  mutable window_stalls : int;
  mutable window_stall_ns : int;
  mutable outstanding_peak : int;
  mutable retransmits : int;
  mutable fault_delay_ns : int;
  mutable arb_delay_ns : int;
}

let create ?(cost = Cost.default) ?nic ?sq_depth ?(signal_interval = 1) ?inject
    ?arbitrate ?(retry = default_retry) ~clock () =
  assert (signal_interval > 0);
  assert (retry.rx_timeout_ns > 0 && retry.retry_limit >= 0 && retry.backoff_cap >= 0);
  (match sq_depth with Some d -> assert (d > 0) | None -> ());
  {
    cost;
    clock;
    nic = (match nic with Some n -> n | None -> Nic.create ());
    sq_depth;
    signal_interval;
    inject;
    arbitrate;
    retry;
    sq = Queue.create ();
    cq = Queue.create ();
    since_signal = 0;
    nic_free_at = 0;
    last_completion = 0;
    payload_bytes = 0;
    wire_bytes = 0;
    posts = 0;
    verbs = 0;
    signaled = 0;
    completed = 0;
    window_stalls = 0;
    window_stall_ns = 0;
    outstanding_peak = 0;
    retransmits = 0;
    fault_delay_ns = 0;
    arb_delay_ns = 0;
  }

let clock t = t.clock

(* Retire WQEs whose completion time the clock has reached: fire their
   delivery side-effects (the bytes land at the memory node now, not at
   post time) and make signaled ones reapable. *)
let retire_due t =
  let rec loop () =
    match Queue.peek_opt t.sq with
    | Some p when p.finish <= Clock.now t.clock ->
        ignore (Queue.pop t.sq : pending);
        p.p_deliver ();
        if p.p_signaled then Queue.push p.finish t.cq;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let post t wqes =
  if wqes <> [] then begin
    retire_due t;
    let n = List.length wqes in
    (* Windowed flow control: the send queue holds at most [sq_depth]
       WQEs, so a full window blocks the posting thread — its clock
       advances to the oldest in-flight completion — until the batch
       fits.  A batch larger than the window waits for a full drain. *)
    (match t.sq_depth with
    | Some depth ->
        let needed = min n depth in
        let stalled = ref false in
        while Queue.length t.sq > depth - needed do
          let head = Queue.peek t.sq in
          if head.finish > Clock.now t.clock then begin
            stalled := true;
            t.window_stall_ns <-
              t.window_stall_ns + (head.finish - Clock.now t.clock);
            Clock.advance_to t.clock head.finish
          end;
          retire_due t
        done;
        if !stalled then t.window_stalls <- t.window_stalls + 1
    | None -> ());
    let sizes = List.map (fun w -> w.len) wqes in
    (* The posting thread pays only the doorbell; the NIC pipeline starts
       when it is free and the batch occupies it for the remainder. *)
    Clock.advance t.clock (int_of_float t.cost.Cost.doorbell_ns);
    (* The port is exclusively occupied only for serialization (WQE
       processing + bytes on the wire); the propagation/latency floor is
       pipelined with other QPs' traffic. *)
    let wire =
      int_of_float
        ((t.cost.Cost.wqe_ns *. float_of_int n)
        +. (t.cost.Cost.byte_ns *. float_of_int (Cost.wire_bytes t.cost ~sizes)))
    in
    let latency = Cost.batch_ns t.cost ~sizes - wire in
    let start =
      Nic.occupy t.nic ~start:(max (Clock.now t.clock) t.nic_free_at) ~duration:wire
    in
    let base_finish = start + wire + latency in
    t.nic_free_at <- start + wire;
    t.posts <- t.posts + 1;
    t.verbs <- t.verbs + n;
    t.payload_bytes <- t.payload_bytes + List.fold_left ( + ) 0 sizes;
    t.wire_bytes <- t.wire_bytes + Cost.wire_bytes t.cost ~sizes;
    List.iter
      (fun (w : wqe) ->
        (* Fault injection: each transmission attempt may be dropped (the
           retransmission timer fires and the WQE is resent after capped
           exponential backoff) or delayed.  The final completion time is
           clamped monotone against earlier WQEs — in-order delivery on a
           reliable connection means a retransmit holds back its
           successors. *)
        let fin = ref (max base_finish t.last_completion) in
        (* Ingress arbitration: a contended memory-node scheduler may defer
           this WQE's completion (queueing behind other tenants' traffic).
           The added wait surfaces exactly like a fault delay — later
           completion, in-order clamp — but is accounted separately. *)
        (match t.arbitrate with
        | None -> ()
        | Some f ->
            let d = f ~node:w.node ~op:w.op ~len:w.len ~now:!fin in
            if d > 0 then begin
              t.arb_delay_ns <- t.arb_delay_ns + d;
              fin := !fin + d
            end);
        (match t.inject with
        | None -> ()
        | Some draw ->
            let attempt = ref 0 in
            let sending = ref true in
            while !sending do
              match draw () with
              | None -> sending := false
              | Some (`Delay d) ->
                  t.fault_delay_ns <- t.fault_delay_ns + d;
                  fin := !fin + d;
                  sending := false
              | Some `Drop ->
                  if !attempt >= t.retry.retry_limit then
                    raise (Retry_exhausted { attempts = !attempt + 1 });
                  let backoff =
                    t.retry.rx_timeout_ns
                    * (1 lsl min !attempt t.retry.backoff_cap)
                  in
                  t.retransmits <- t.retransmits + 1;
                  t.fault_delay_ns <- t.fault_delay_ns + backoff;
                  fin := !fin + backoff;
                  incr attempt
            done);
        t.last_completion <- max t.last_completion !fin;
        (* Selective signaling: only every [signal_interval]-th WQE the
           caller asked to signal actually raises a CQE. *)
        let signaled =
          w.signaled
          && begin
               t.since_signal <- t.since_signal + 1;
               if t.since_signal >= t.signal_interval then begin
                 t.since_signal <- 0;
                 true
               end
               else false
             end
        in
        if signaled then t.signaled <- t.signaled + 1;
        Queue.push { finish = !fin; p_signaled = signaled; p_deliver = w.deliver } t.sq)
      wqes;
    if Queue.length t.sq > t.outstanding_peak then
      t.outstanding_peak <- Queue.length t.sq
  end

let poll t ~max:n =
  retire_due t;
  let rec loop acc n =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.cq with
      | Some finish ->
          t.completed <- t.completed + 1;
          Clock.advance t.clock (int_of_float t.cost.Cost.cqe_ns);
          loop (finish :: acc) (n - 1)
      | None -> List.rev acc
  in
  loop [] n

let wait_idle t =
  Clock.advance_to t.clock t.last_completion;
  retire_due t;
  let n = Queue.length t.cq in
  t.completed <- t.completed + n;
  Clock.advance t.clock (n * int_of_float t.cost.Cost.cqe_ns);
  Queue.clear t.cq

(* Posted-but-not-completed WQEs relative to the clock, unsignaled ones
   included: CQ depth alone under-reports in-flight work, and wire
   occupancy alone over-reports it once the port is free but completions
   are still outstanding. *)
let in_flight t =
  let now = Clock.now t.clock in
  Queue.fold (fun acc p -> if p.finish > now then acc + 1 else acc) 0 t.sq

let payload_bytes t = t.payload_bytes
let wire_bytes t = t.wire_bytes
let posts t = t.posts
let verbs t = t.verbs
let signaled t = t.signaled
let completed t = t.completed
let window_stalls t = t.window_stalls
let window_stall_ns t = t.window_stall_ns
let outstanding_peak t = t.outstanding_peak
let retransmits t = t.retransmits
let fault_delay_ns t = t.fault_delay_ns
let arb_delay_ns t = t.arb_delay_ns
