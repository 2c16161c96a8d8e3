open Kona_util

exception Timeout_exhausted of { attempts : int }

(* A lost exchange costs this before its resend, doubling per consecutive
   loss: a constant, since no caller varies it. *)
let timeout_ns = 10_000

type t = {
  qp : Qp.t;
  service_ns : int;
  backoff : Backoff.config;
  fail : (unit -> bool) option;
  clock : Clock.t;
  mutable calls : int;
  mutable total_ns : int;
  mutable timeouts : int;
  mutable retries : int;
}

let create ?cost ?(service_ns = 1_500) ?(backoff = Backoff.default) ?fail
    ?inject ~clock ~nic () =
  (* The stack-wide backoff policy sets the retry budget and backoff
     shape, and the channel's SENDs retransmit under it. *)
  assert (backoff.Backoff.rpc_retry_max >= 0);
  {
    qp = Qp.create ?cost ?inject ~backoff ~nic ~clock ();
    service_ns;
    backoff;
    fail;
    clock;
    calls = 0;
    total_ns = 0;
    timeouts = 0;
    retries = 0;
  }

let call t ~request_bytes ~response_bytes f x =
  assert (request_bytes >= 0 && response_bytes >= 0);
  let before = Clock.now t.clock in
  (* Timeout/retry wrapper: an injected fault loses the exchange before the
     handler runs, so the caller burns the timeout (with capped exponential
     backoff) and resends.  The handler itself executes exactly once, on
     the attempt that goes through. *)
  let rec attempt k =
    (* A lost attempt burns the timeout, then resends; past the budget,
       [exhausted] surfaces. *)
    let lose exhausted =
      t.timeouts <- t.timeouts + 1;
      Clock.advance t.clock
        (timeout_ns * (1 lsl min k t.backoff.Backoff.cap_shift));
      if k >= t.backoff.Backoff.rpc_retry_max then raise exhausted;
      t.retries <- t.retries + 1;
      attempt (k + 1)
    in
    match t.fail with
    | Some failing when failing () -> lose (Timeout_exhausted { attempts = k + 1 })
    | Some _ | None -> (
        let send len =
          Qp.post t.qp [ Qp.wqe ~signaled:true Qp.Write ~len ];
          Qp.wait_idle t.qp
        in
        (* Request SEND: the caller blocks for the round trip, so both
           messages complete on its clock. *)
        match send request_bytes with
        | exception e ->
            (* The request never reached the peer (e.g. the QP exhausted
               its retransmissions under wqe-drop), so resending cannot
               double-execute the handler.  When retries run out the
               {e underlying} failure surfaces — a transport death must
               not be masked as [Timeout_exhausted]. *)
            lose e
        | () ->
            Clock.advance t.clock t.service_ns;
            (* Handler and response exceptions propagate immediately:
               the handler has executed, so a retry would break the
               exactly-once guarantee — and the caller must see the real
               error, not a timeout. *)
            let result = f x in
            send response_bytes;
            result)
  in
  let result = attempt 0 in
  t.calls <- t.calls + 1;
  t.total_ns <- t.total_ns + (Clock.now t.clock - before);
  result

let calls t = t.calls
let total_ns t = t.total_ns
let timeouts t = t.timeouts
let retries t = t.retries
