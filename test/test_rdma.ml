(* Tests for Kona_rdma: the cost model's calibration properties and the QP
   batching/completion/contention semantics. *)

open Kona_rdma
module Clock = Kona_util.Clock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_calibration () =
  (* Paper §2.1: a 4KB RDMA operation is ~3us; small ops are close below. *)
  let c = Cost.default in
  let t4k = Cost.batch_ns c ~sizes:[ 4096 ] in
  check_bool "4KB op ~ 3us" true (t4k > 2_700 && t4k < 3_400);
  let t64 = Cost.batch_ns c ~sizes:[ 64 ] in
  check_bool "64B op ~ 2.9us" true (t64 > 2_500 && t64 < 3_100);
  check_bool "4KB slower than 64B" true (t4k > t64)

let test_cost_batching_amortizes () =
  let c = Cost.default in
  let batched = Cost.batch_ns c ~sizes:(List.init 16 (fun _ -> 64)) in
  let separate = 16 * Cost.batch_ns c ~sizes:[ 64 ] in
  check_bool "one linked batch beats 16 posts" true (batched * 3 < separate);
  check_int "empty batch is free" 0 (Cost.batch_ns c ~sizes:[])

let test_cost_wire_bytes () =
  let c = Cost.default in
  check_int "headers counted per WQE"
    ((2 * c.Cost.header_bytes) + 128)
    (Cost.wire_bytes c ~wqes:2 ~payload:128)

let test_cost_memcpy_and_bitmap () =
  let c = Cost.default in
  check_bool "memcpy grows with size" true
    (Cost.memcpy_ns c ~bytes:4096 > Cost.memcpy_ns c ~bytes:64);
  check_bool "bitmap scan linear-ish" true
    (Cost.bitmap_scan_ns c ~lines:64 >= 4 * Cost.bitmap_scan_ns c ~lines:16)

let prop_cost_monotone =
  QCheck.Test.make ~name:"batch time monotone in payload" ~count:200
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Cost.batch_ns Cost.default ~sizes:[ lo ] <= Cost.batch_ns Cost.default ~sizes:[ hi ])

(* ------------------------------------------------------------------ *)
(* Qp *)

let test_qp_delivery_and_completion () =
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  let delivered = ref false in
  Qp.post qp
    [ Qp.wqe ~signaled:true ~deliver:(fun () -> delivered := true) Qp.Write ~len:4096 ];
  (* Completion-driven: the bytes land when the clock reaches the WQE's
     completion time, not at post. *)
  check_bool "not delivered at post" false !delivered;
  (* A second post retires what is due, and the first is not yet. *)
  Qp.post qp [ Qp.wqe Qp.Write ~len:64 ];
  check_bool "post before completion does not deliver" false !delivered;
  check_int "nothing reaped yet" 0 (Qp.completed qp);
  Qp.wait_idle qp;
  check_bool "delivered at completion" true !delivered;
  check_bool "clock advanced past wire time" true (Clock.now clock > 2_500);
  check_int "one CQE reaped" 1 (Qp.completed qp);
  check_int "verbs" 2 (Qp.verbs qp);
  check_int "posts" 2 (Qp.posts qp)

let test_qp_completion_ordered_delivery () =
  (* Deliveries fire in completion order as the clock crosses each finish
     time, whichever call (post/wait_idle) retires them. *)
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  Qp.post qp [ Qp.wqe ~signaled:true ~deliver:(mark "a") Qp.Write ~len:4096 ];
  Qp.post qp [ Qp.wqe ~signaled:true ~deliver:(mark "b") Qp.Write ~len:4096 ];
  check_int "nothing delivered at post" 0 (List.length !order);
  Clock.advance clock 1_000_000;
  check_int "clock alone delivers nothing" 0 (List.length !order);
  Qp.post qp [ Qp.wqe ~deliver:(mark "c") Qp.Write ~len:64 ];
  Alcotest.(check (list string)) "post retires in post order" [ "a"; "b" ]
    (List.rev !order);
  Qp.wait_idle qp;
  Alcotest.(check (list string)) "wait_idle retires the rest" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_qp_window_backpressure () =
  let clock = Clock.create () in
  let qp = Qp.create ~sq_depth:1 ~clock () in
  Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:4096 ];
  check_int "no stall on empty window" 0 (Qp.window_stalls qp);
  let before = Clock.now clock in
  Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:4096 ];
  check_int "second post stalled" 1 (Qp.window_stalls qp);
  check_bool "stall advanced the caller's clock" true (Clock.now clock > before);
  check_bool "stall time accounted" true (Qp.window_stall_ns qp > 0);
  check_int "peak outstanding bounded by depth" 1 (Qp.outstanding_peak qp);
  Qp.wait_idle qp;
  let unbounded =
    let c = Clock.create () in
    let q = Qp.create ~clock:c () in
    Qp.post q [ Qp.wqe ~signaled:true Qp.Write ~len:4096 ];
    Qp.post q [ Qp.wqe ~signaled:true Qp.Write ~len:4096 ];
    Qp.wait_idle q;
    Clock.now c
  in
  check_bool "windowed run no faster than unbounded" true
    (Clock.now clock >= unbounded)

let test_qp_selective_signaling () =
  let clock = Clock.create () in
  let qp = Qp.create ~signal_interval:4 ~clock () in
  for _ = 1 to 8 do
    Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:64 ]
  done;
  Qp.wait_idle qp;
  check_int "8 requested, every 4th raises a CQE" 2 (Qp.completed qp);
  check_int "signaled counter matches CQEs" 2 (Qp.signaled qp)

let test_qp_in_flight () =
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  Qp.post qp
    [
      Qp.wqe Qp.Write ~len:64;
      Qp.wqe Qp.Write ~len:64;
      Qp.wqe ~signaled:true Qp.Write ~len:64;
    ];
  (* Unsignaled WQEs count too: posted minus completed, not CQ depth. *)
  check_int "all posted WQEs in flight" 3 (Qp.in_flight qp);
  Clock.advance clock 1_000_000;
  check_int "none in flight past completion time" 0 (Qp.in_flight qp);
  Qp.wait_idle qp;
  check_int "signaled one reaped" 1 (Qp.completed qp);
  check_int "still none in flight" 0 (Qp.in_flight qp)

let test_qp_reap_after_time () =
  (* Past the completion time, reaping costs one [cqe_ns] per CQE and
     nothing more; a second reap finds the CQ empty. *)
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:64 ];
  Clock.advance clock 1_000_000;
  let before = Clock.now clock in
  Qp.wait_idle qp;
  check_int "one completion" 1 (Qp.completed qp);
  check_int "one cqe_ns charged" (int_of_float Cost.default.Cost.cqe_ns)
    (Clock.now clock - before);
  let drained = Clock.now clock in
  Qp.wait_idle qp;
  check_int "cq drained" 1 (Qp.completed qp);
  check_int "empty reap charges nothing" drained (Clock.now clock)

let test_qp_unsignaled () =
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  Qp.post qp [ Qp.wqe Qp.Write ~len:64; Qp.wqe ~signaled:true Qp.Write ~len:64 ];
  Qp.wait_idle qp;
  check_int "only last signaled" 1 (Qp.completed qp)

let test_qp_accounting () =
  let clock = Clock.create () in
  let qp = Qp.create ~clock () in
  Qp.post qp [ Qp.wqe Qp.Write ~len:100; Qp.wqe Qp.Read ~len:50 ];
  check_int "payload" 150 (Qp.payload_bytes qp);
  check_int "wire includes headers" (150 + (2 * Cost.default.Cost.header_bytes))
    (Qp.wire_bytes qp)

let test_nic_contention () =
  (* Two QPs on one NIC: the second post waits for the wire. *)
  let nic = Nic.create () in
  let c1 = Clock.create () and c2 = Clock.create () in
  let qp1 = Qp.create ~nic ~clock:c1 () in
  let qp2 = Qp.create ~nic ~clock:c2 () in
  Qp.post qp1 [ Qp.wqe ~signaled:true Qp.Write ~len:1_000_000 ];
  Qp.post qp2 [ Qp.wqe ~signaled:true Qp.Write ~len:64 ];
  Qp.wait_idle qp2;
  let solo =
    let c = Clock.create () in
    let qp = Qp.create ~clock:c () in
    Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:64 ];
    Qp.wait_idle qp;
    Clock.now c
  in
  check_bool "contended op slower than solo" true (Clock.now c2 > 2 * solo)

let prop_qp_completions_conserved =
  QCheck.Test.make ~name:"every signaled wqe completes exactly once" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) bool)
    (fun signals ->
      let clock = Clock.create () in
      let qp = Qp.create ~clock () in
      List.iter (fun s -> Qp.post qp [ Qp.wqe ~signaled:s Qp.Write ~len:64 ]) signals;
      Clock.advance clock 1_000_000_000;
      let before = Clock.now clock in
      Qp.wait_idle qp;
      let expected = List.length (List.filter Fun.id signals) in
      Qp.completed qp = expected
      && Qp.signaled qp = expected
      && Clock.now clock - before = expected * int_of_float Cost.default.Cost.cqe_ns)

(* ------------------------------------------------------------------ *)
(* Rpc *)

let test_rpc_round_trip () =
  let clock = Clock.create () in
  let nic = Nic.create () in
  let rpc = Rpc.create ~service_ns:2_000 ~clock ~nic () in
  let result = Rpc.call rpc ~request_bytes:64 ~response_bytes:256 (fun x -> x * 2) 21 in
  check_int "handler result" 42 result;
  check_int "calls" 1 (Rpc.calls rpc);
  (* two small sends + 2us service: > 7us, < 15us *)
  check_bool "round trip priced" true (Clock.now clock > 7_000 && Clock.now clock < 15_000);
  check_int "total accounted" (Clock.now clock) (Rpc.total_ns rpc)

let test_rpc_outage_blocks_control_path () =
  let clock = Clock.create () in
  let nic = Nic.create () in
  Nic.inject_outage nic ~at:0 ~duration:1_000_000;
  let rpc = Rpc.create ~clock ~nic () in
  ignore (Rpc.call rpc ~request_bytes:8 ~response_bytes:8 Fun.id ());
  check_bool "control path waits out the outage" true (Clock.now clock > 1_000_000)

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_rdma"
    [
      ( "cost",
        [
          Alcotest.test_case "calibration" `Quick test_cost_calibration;
          Alcotest.test_case "batching amortizes" `Quick test_cost_batching_amortizes;
          Alcotest.test_case "wire bytes" `Quick test_cost_wire_bytes;
          Alcotest.test_case "memcpy/bitmap" `Quick test_cost_memcpy_and_bitmap;
        ] );
      qsuite "cost-props" [ prop_cost_monotone ];
      ( "qp",
        [
          Alcotest.test_case "delivery + completion" `Quick test_qp_delivery_and_completion;
          Alcotest.test_case "completion-ordered delivery" `Quick
            test_qp_completion_ordered_delivery;
          Alcotest.test_case "window backpressure" `Quick test_qp_window_backpressure;
          Alcotest.test_case "selective signaling" `Quick test_qp_selective_signaling;
          Alcotest.test_case "in-flight accounting" `Quick test_qp_in_flight;
          Alcotest.test_case "reap after time" `Quick test_qp_reap_after_time;
          Alcotest.test_case "unsignaled" `Quick test_qp_unsignaled;
          Alcotest.test_case "accounting" `Quick test_qp_accounting;
          Alcotest.test_case "nic contention" `Quick test_nic_contention;
        ] );
      qsuite "qp-props" [ prop_qp_completions_conserved ];
      ( "rpc",
        [
          Alcotest.test_case "round trip" `Quick test_rpc_round_trip;
          Alcotest.test_case "outage blocks control path" `Quick
            test_rpc_outage_blocks_control_path;
        ] );
    ]
