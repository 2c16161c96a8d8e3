(* One retry/backoff policy shared by every layer that resends: the QP
   retransmission path (rx timer, RNR-style) and the RPC timeout/resend
   loop.  [Qp.create] and [Rpc.create] both take this type (an RPC
   channel hands it on to the queue pair its SENDs ride), and one
   config threads from konactl through Runtime/Vm_runtime, so a fault
   sweep can turn one knob and move the whole stack.

   The delay for attempt [k] (0-based) is [base * 2^min(k, cap_shift)] —
   capped exponential backoff.  The base differs per layer (the QP uses
   its retransmission timer, the RPC its response timeout); the config
   fixes the shape. *)

type config = {
  base_ns : int;  (** QP retransmission timer / first backoff step *)
  qp_retry_max : int;  (** transmissions before [Qp.Retry_exhausted] *)
  rpc_retry_max : int;  (** resends before [Rpc.Timeout_exhausted] *)
  cap_shift : int;  (** backoff doubling capped at [2^cap_shift] *)
}

let default =
  { base_ns = 8_000; qp_retry_max = 7; rpc_retry_max = 5; cap_shift = 4 }

(* The single-knob override: [--retry-max n] caps every layer's retry
   budget at once without touching the timers. *)
let with_retry_max t n = { t with qp_retry_max = n; rpc_retry_max = n }
let with_base_ns t ns = { t with base_ns = ns }
