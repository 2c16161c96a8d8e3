type tenant_stats = {
  admits : int;
  bytes : int;
  delay_ns : int;
  contended_admits : int;
  contended_bytes : int;
  contended_ns : int;
}

type cell = {
  mutable admits : int;
  mutable bytes : int;
  mutable delay_ns : int;
  mutable contended_admits : int;
  mutable contended_bytes : int;
  mutable contended_ns : int;
  mutable fin : int;  (** virtual finish time of this tenant's last slot *)
}

type t = {
  byte_ns : float;  (** ns per byte on the wire *)
  weights : int array;
  cells : cell array;
  mutable busy_until : int;
  mutable total_admits : int;
  mutable saturated_admits : int;
  mutable peak_backlog_ns : int;
}

let create ~gbps ~weights =
  if Array.length weights = 0 then invalid_arg "Wfq.create: no tenants";
  if gbps <= 0.0 then invalid_arg "Wfq.create: non-positive link rate";
  Array.iter
    (fun w -> if w <= 0 then invalid_arg "Wfq.create: non-positive weight")
    weights;
  {
    byte_ns = 8.0 /. gbps;
    weights = Array.copy weights;
    cells =
      Array.init (Array.length weights) (fun _ ->
          {
            admits = 0;
            bytes = 0;
            delay_ns = 0;
            contended_admits = 0;
            contended_bytes = 0;
            contended_ns = 0;
            fin = 0;
          });
    busy_until = 0;
    total_admits = 0;
    saturated_admits = 0;
    peak_backlog_ns = 0;
  }

let wire_ns t ~bytes =
  if bytes <= 0 then 0
  else max 1 (int_of_float (ceil (float_of_int bytes *. t.byte_ns)))

(* Weights of the tenants currently backlogged (their last slot's finish
   time lies in the future), always counting the arriving tenant. *)
let active_weight t ~tenant ~now =
  let sum = ref 0 in
  Array.iteri
    (fun j c -> if j = tenant || c.fin > now then sum := !sum + t.weights.(j))
    t.cells;
  !sum

let admit t ~tenant ~bytes ~now =
  let c = t.cells.(tenant) in
  let s = wire_ns t ~bytes in
  t.total_admits <- t.total_admits + 1;
  c.admits <- c.admits + 1;
  c.bytes <- c.bytes + bytes;
  let saturated = t.busy_until > now in
  t.busy_until <- max t.busy_until now + s;
  let backlog = t.busy_until - now in
  if backlog > t.peak_backlog_ns then t.peak_backlog_ns <- backlog;
  if not saturated then begin
    (* idle link: the message streams straight through *)
    c.fin <- now + s;
    0
  end
  else begin
    t.saturated_admits <- t.saturated_admits + 1;
    (* start-time fair queueing: the tenant's next slot is spaced by its
       weighted share of the contended link *)
    let wsum = active_weight t ~tenant ~now in
    let spacing = max s (s * wsum / t.weights.(tenant)) in
    let start = max now c.fin in
    c.fin <- start + spacing;
    (* achieved-bandwidth accounting covers only cross-tenant contention:
       bytes/spacing there is exactly the link rate times w_t/W, so the
       measured service-rate ratios converge to the weight ratios *)
    if wsum > t.weights.(tenant) then begin
      c.contended_admits <- c.contended_admits + 1;
      c.contended_bytes <- c.contended_bytes + bytes;
      c.contended_ns <- c.contended_ns + spacing
    end;
    let delay = max 0 (c.fin - now - s) in
    c.delay_ns <- c.delay_ns + delay;
    delay
  end

let tenant_stats t ~tenant =
  let c = t.cells.(tenant) in
  {
    admits = c.admits;
    bytes = c.bytes;
    delay_ns = c.delay_ns;
    contended_admits = c.contended_admits;
    contended_bytes = c.contended_bytes;
    contended_ns = c.contended_ns;
  }

let total_admits t = t.total_admits
let saturated_admits t = t.saturated_admits
let peak_backlog_ns t = t.peak_backlog_ns
