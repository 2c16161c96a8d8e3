module Rack = Kona_rack.Rack
module Units = Kona_util.Units
module Runtime = Kona.Runtime

type t = {
  e : Rack.engine;
  client : int;
  server : int;
  req_lines : int;
  resp_lines : int;
  mutable seq : int;
  mutable calls : int;
  mutable total_ns : int;
  mutable max_ns : int;
  handoffs0 : int;
  invalidations0 : int;
}

type stats = {
  s_calls : int;
  s_total_ns : int;
  s_max_ns : int;
  s_req_lines : int;
  s_resp_lines : int;
  s_handoffs : int;
  s_invalidations : int;
}

(* The ring starts at line 1 of the first shared page: the woven rack
   traffic only ever writes line 0 of each page, so the data plane stays
   out of its way. *)
let base_line = 1

(* Calls in flight around the ring before a slot is reused. *)
let slots = 4

let ring_lines t = 2 + (slots * (t.req_lines + t.resp_lines))

let create ?(req_lines = 1) ?(resp_lines = 1) e ~client ~server () =
  if req_lines < 1 || resp_lines < 1 then
    invalid_arg "Shm_rpc.create: ring geometry must be positive";
  let n = Rack.tenant_count e in
  if client < 0 || client >= n || server < 0 || server >= n || client = server
  then invalid_arg "Shm_rpc.create: client and server must be distinct tenants";
  let t =
    {
      e;
      client;
      server;
      req_lines;
      resp_lines;
      seq = 0;
      calls = 0;
      total_ns = 0;
      max_ns = 0;
      handoffs0 = Rack.shared_handoffs e;
      invalidations0 = Rack.shared_invalidations e;
    }
  in
  Rack.publish e ~pages:1;
  (* doorbell lines always have two writers, whatever the engine's
     [shared_writers] says: writeback races need the home-side filter *)
  Rack.enable_multi_writer e;
  (* the ring must fit in the first shared page's lines *)
  if base_line + ring_lines t > Units.lines_per_page then
    invalid_arg "Shm_rpc.create: ring does not fit in one shared page";
  t

let now t =
  max
    (Runtime.elapsed_ns (Rack.runtime t.e ~tenant:t.client))
    (Runtime.elapsed_ns (Rack.runtime t.e ~tenant:t.server))

let call t ~payload =
  let slot = t.seq mod slots in
  let head = base_line and tail = base_line + 1 in
  let req0 = base_line + 2 + (slot * t.req_lines) in
  let resp0 = base_line + 2 + (slots * t.req_lines) + (slot * t.resp_lines) in
  let byte k = Char.chr ((payload + k) land 0xff) in
  let t0 = now t in
  (* client stages the request, then rings the doorbell: each write is an
     RFO that steals the line back from whoever last touched it *)
  for j = 0 to t.req_lines - 1 do
    Rack.shared_line_write t.e ~tenant:t.client ~line:(req0 + j)
      ~payload:(byte j)
  done;
  Rack.shared_line_write t.e ~tenant:t.client ~line:head ~payload:(byte t.seq);
  (* the server claims the doorbell with an atomic swap — a single RFO
     that both observes the sequence number and takes ownership (a
     read-then-upgrade would cost two bus transactions): this is the
     writer handoff that recalls the client's dirty head line *)
  Rack.shared_line_write t.e ~tenant:t.server ~line:head
    ~payload:(byte (t.seq + 1));
  for j = 0 to t.req_lines - 1 do
    Rack.shared_line_read t.e ~tenant:t.server ~line:(req0 + j)
  done;
  (* response plus completion doorbell *)
  for j = 0 to t.resp_lines - 1 do
    Rack.shared_line_write t.e ~tenant:t.server ~line:(resp0 + j)
      ~payload:(byte (j + 1))
  done;
  Rack.shared_line_write t.e ~tenant:t.server ~line:tail ~payload:(byte t.seq);
  (* client claims the completion doorbell the same way — ownership of
     both doorbell lines ping-pongs once per direction per call *)
  Rack.shared_line_write t.e ~tenant:t.client ~line:tail
    ~payload:(byte (t.seq + 1));
  for j = 0 to t.resp_lines - 1 do
    Rack.shared_line_read t.e ~tenant:t.client ~line:(resp0 + j)
  done;
  t.seq <- t.seq + 1;
  let dt = max 0 (now t - t0) in
  t.calls <- t.calls + 1;
  t.total_ns <- t.total_ns + dt;
  if dt > t.max_ns then t.max_ns <- dt;
  dt

let stats t =
  {
    s_calls = t.calls;
    s_total_ns = t.total_ns;
    s_max_ns = t.max_ns;
    s_req_lines = t.req_lines;
    s_resp_lines = t.resp_lines;
    s_handoffs = Rack.shared_handoffs t.e - t.handoffs0;
    s_invalidations = Rack.shared_invalidations t.e - t.invalidations0;
  }

let mean_ns s = if s.s_calls = 0 then 0 else s.s_total_ns / s.s_calls

let run ?req_lines ?resp_lines e ~client ~server ~calls () =
  let t = create ?req_lines ?resp_lines e ~client ~server () in
  for k = 0 to calls - 1 do
    ignore (call t ~payload:k)
  done;
  stats t
