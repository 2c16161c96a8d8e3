(** Shared-memory RPC: requests and responses carried through coherent
    cache lines of a published rack segment instead of QP messages — the
    "Telepathic Datacenters" idea, rebuilt on the rack's multi-writer MSI
    directory.

    The ring lives in the first shared page: a head line (the client's
    doorbell), a tail line (the server's completion doorbell), then four
    request-line groups and four response-line groups, one of each per
    slot of the ring.  Every write is an RFO through
    {!Kona_rack.Rack.shared_line_write}, so the head and tail lines
    ping-pong ownership between client and server by construction; each
    handoff's recall is priced through the contended home-node link,
    which is exactly what the {!Rpc} message path it is benched against
    pays in NIC and service time instead.

    All traffic is deterministic replay — same engine, same seeds, same
    fingerprints — so a ring run is bit-reproducible like everything else
    in the rack. *)

type t

type stats = {
  s_calls : int;
  s_total_ns : int;  (** sum of per-call latencies (client+server clocks) *)
  s_max_ns : int;
  s_req_lines : int;
  s_resp_lines : int;
  s_handoffs : int;  (** writer handoffs the ring caused at the MSI home *)
  s_invalidations : int;  (** copies its RFOs killed *)
}

val create :
  ?req_lines:int ->
  ?resp_lines:int ->
  Kona_rack.Rack.engine ->
  client:int ->
  server:int ->
  unit ->
  t
(** A ring between two distinct tenants on [e]'s shared segment
    (published on demand: one page if none yet).  Defaults: one request
    and one response line per call.  The ring always starts at
    line 1: line 0 of each page belongs to the woven rack traffic.  Raises
    [Invalid_argument] if the tenants are not distinct, the geometry is
    non-positive, or the ring overflows the first page's lines. *)

val call : t -> payload:int -> int
(** One round trip: the client writes the request lines and rings the
    head doorbell; the server claims the doorbell with an atomic swap (an
    RFO that recalls the client's dirty copy — a writer handoff), reads
    the request, writes the response lines and rings the tail doorbell;
    the client claims that the same way and reads the response.  Returns
    the call's latency in virtual ns (the max of client and server
    clocks, before vs after). *)

val mean_ns : stats -> int
(** Mean ns per call; 0 before any call. *)

val run :
  ?req_lines:int ->
  ?resp_lines:int ->
  Kona_rack.Rack.engine ->
  client:int ->
  server:int ->
  calls:int ->
  unit ->
  stats
(** Convenience: a fresh ring and [calls] sequential calls with payload
    [0..calls-1].  Deterministic for a deterministic engine. *)
