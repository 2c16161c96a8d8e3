open Kona_util

exception Timeout_exhausted of { attempts : int }

(* A lost exchange costs this before its resend, doubling per consecutive
   loss: a constant, since no caller varies it. *)
let timeout_ns = 10_000

type t = {
  qp : Qp.t;
  service_ns : int;
  retry_limit : int;
  cap_shift : int;
  fail : (unit -> bool) option;
  clock : Clock.t;
  mutable calls : int;
  mutable total_ns : int;
  mutable timeouts : int;
  mutable retries : int;
}

let create ?cost ?(service_ns = 1_500) ?retry_limit ?backoff ?fail ?inject
    ~clock ~nic () =
  (* The stack-wide backoff policy sets the retry budget and backoff
     shape; an explicit [retry_limit] still wins for targeted tests. *)
  let cfg = Option.value backoff ~default:Backoff.default in
  let retry_limit =
    match retry_limit with Some n -> n | None -> cfg.Backoff.rpc_retry_max
  in
  assert (retry_limit >= 0);
  {
    qp = Qp.create ?cost ?inject ~nic ~clock ();
    service_ns;
    retry_limit;
    cap_shift = cfg.Backoff.cap_shift;
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
    match t.fail with
    | Some failing when failing () ->
        t.timeouts <- t.timeouts + 1;
        Clock.advance t.clock (timeout_ns * (1 lsl min k t.cap_shift));
        if k >= t.retry_limit then raise (Timeout_exhausted { attempts = k + 1 });
        t.retries <- t.retries + 1;
        attempt (k + 1)
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
            t.timeouts <- t.timeouts + 1;
            Clock.advance t.clock (timeout_ns * (1 lsl min k t.cap_shift));
            if k >= t.retry_limit then raise e;
            t.retries <- t.retries + 1;
            attempt (k + 1)
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
