type t = {
  base_ns : float;
  doorbell_ns : float;
  wqe_ns : float;
  byte_ns : float;
  header_bytes : int;
  memcpy_base_ns : float;
  memcpy_byte_ns : float;
  bitmap_line_ns : float;
  ack_ns : float;
  cqe_ns : float;
}

(* byte_ns: 100 Gbps = 12.5 GB/s = 0.08 ns/B.
   base 2.55us + 4096 * 0.08 = 2.88us + doorbell/wqe ≈ 3.0us for a 4KB op. *)
let default =
  {
    base_ns = 2_550.;
    doorbell_ns = 250.;
    wqe_ns = 120.;
    byte_ns = 0.08;
    header_bytes = 42;
    (* AVX-accelerated copies into registered buffers (§5.1) are fast per
       byte; the base covers log bookkeeping per staged entry. *)
    memcpy_base_ns = 25.;
    memcpy_byte_ns = 0.05;
    bitmap_line_ns = 1.0;
    ack_ns = 2_900.;
    (* Reaping one CQE: cacheline read of the CQ + bookkeeping.  This is
       what selective signaling (signal every Nth WQE) amortizes. *)
    cqe_ns = 150.;
  }

let wire_bytes t ~wqes ~payload = payload + (wqes * t.header_bytes)

let linked_ns t ~wqes ~wire_bytes =
  int_of_float
    (t.base_ns +. t.doorbell_ns
    +. (t.wqe_ns *. float_of_int wqes)
    +. (t.byte_ns *. float_of_int wire_bytes))

let batch_ns t ~sizes =
  match sizes with
  | [] -> 0
  | _ ->
      let n = List.length sizes in
      let payload = List.fold_left ( + ) 0 sizes in
      linked_ns t ~wqes:n ~wire_bytes:(wire_bytes t ~wqes:n ~payload)

let memcpy_ns t ~bytes =
  int_of_float (t.memcpy_base_ns +. (t.memcpy_byte_ns *. float_of_int bytes))

let bitmap_scan_ns t ~lines = int_of_float (t.bitmap_line_ns *. float_of_int lines)
