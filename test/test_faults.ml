(* Tests for the fault-injection subsystem and the recovery machinery it
   drives: the fault-spec grammar, the deterministic injector, QP
   retransmission, RPC retry, fail-stop memory nodes, replica failover at
   the controller, and the runtime-level end-to-end properties — bytes
   survive a memory-node crash when replicated, retransmission delivers
   exactly once, and seeded plans are bit-reproducible. *)

open Kona
module Clock = Kona_util.Clock
module Rng = Kona_util.Rng
module Units = Kona_util.Units
module Heap = Kona_workloads.Heap
module Qp = Kona_rdma.Qp
module Rpc = Kona_rdma.Rpc
module Nic = Kona_rdma.Nic
module Fault_spec = Kona_faults.Fault_spec
module Injector = Kona_faults.Injector
module System = Kona_baselines.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let raises_invalid f =
  try
    ignore (f ());
    None
  with Invalid_argument msg -> Some msg

(* Naive substring test; good enough for error-message assertions. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Fault-spec grammar *)

let test_spec_parse () =
  (match Fault_spec.parse "node-crash@2ms:id=1" with
  | Ok [ Fault_spec.Node_crash { at_ns; id } ] ->
      check_int "2ms in ns" 2_000_000 at_ns;
      check_int "id" 1 id
  | _ -> Alcotest.fail "node-crash parse");
  (match Fault_spec.parse "link-flap@1ms:dur=200us" with
  | Ok [ Fault_spec.Link_flap { at_ns; dur_ns } ] ->
      check_int "at" 1_000_000 at_ns;
      check_int "dur" 200_000 dur_ns
  | _ -> Alcotest.fail "link-flap parse");
  (match Fault_spec.parse "partition@2ms:dur=500us,nodes=0|2" with
  | Ok [ Fault_spec.Partition { at_ns; dur_ns; ids } ] ->
      check_int "partition at" 2_000_000 at_ns;
      check_int "partition dur" 500_000 dur_ns;
      check_bool "partition ids" true (ids = [ 0; 2 ])
  | _ -> Alcotest.fail "partition parse");
  match Fault_spec.parse "rpc-timeout:p=0.01; wqe-drop:p=0.5 ;wqe-delay:p=1,ns=300" with
  | Ok
      [
        Fault_spec.Rpc_timeout { p = p1 };
        Fault_spec.Wqe_drop { p = p2 };
        Fault_spec.Wqe_delay { p = p3; delay_ns };
      ] ->
      check_bool "probs" true (p1 = 0.01 && p2 = 0.5 && p3 = 1.0);
      check_int "delay" 300 delay_ns
  | _ -> Alcotest.fail "multi-clause parse"

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      let plan = Fault_spec.parse_exn s in
      check_bool ("round-trip " ^ s) true
        (Fault_spec.parse_exn (Fault_spec.to_string plan) = plan))
    [
      "node-crash@2ms:id=1";
      "link-flap@1500us:dur=3us";
      "rpc-timeout:p=0.25";
      "node-crash@7ns:id=0;wqe-drop:p=0.125;wqe-delay:p=0.5,ns=4097";
      "bit-flip:p=0.01";
      "torn-write:p=0.05;stale-read:p=0.02;dup-deliver:p=0.125";
      "bit-flip:p=0.25;torn-write:p=0.5;node-crash@3ms:id=1";
      "partition@1ms:dur=200us,nodes=0";
      "partition@200us:dur=5ms,nodes=0|1|3;node-crash@2ms:id=2";
    ]

let test_spec_errors () =
  let err s =
    match Fault_spec.parse s with Error m -> m | Ok _ -> Alcotest.fail ("accepted " ^ s)
  in
  check_bool "unknown kind named" true (contains ~sub:"disk-melt" (err "disk-melt@1ms"));
  check_bool "bad probability" true (String.length (err "wqe-drop:p=1.5") > 0);
  check_bool "crash needs time" true (String.length (err "node-crash:id=1") > 0);
  check_bool "crash needs id" true (String.length (err "node-crash@1ms") > 0);
  check_bool "bad duration" true (String.length (err "link-flap@soon:dur=1us") > 0);
  check_bool "unknown parameter" true (String.length (err "wqe-drop:p=0.1,q=2") > 0);
  check_bool "partition needs nodes" true
    (String.length (err "partition@1ms:dur=200us,nodes=") > 0);
  check_bool "partition rejects negative ids" true
    (String.length (err "partition@1ms:dur=200us,nodes=0|-1") > 0);
  check_bool "partition dur must be positive" true
    (String.length (err "partition@1ms:dur=0ns,nodes=0") > 0);
  check_bool "partition needs time" true
    (String.length (err "partition:dur=200us,nodes=0") > 0);
  check_bool "parse_exn raises" true
    (raises_invalid (fun () -> Fault_spec.parse_exn "nope") <> None)

let test_spec_duplicate_kinds () =
  let err s =
    match Fault_spec.parse s with Error m -> m | Ok _ -> Alcotest.fail ("accepted " ^ s)
  in
  check_bool "duplicate probabilistic kind named" true
    (contains ~sub:"duplicate clause kind" (err "bit-flip:p=0.1;bit-flip:p=0.2"));
  check_bool "offending kind in message" true
    (contains ~sub:"torn-write" (err "wqe-drop:p=0.1;torn-write:p=0.2;torn-write:p=0.3"));
  check_bool "parse_exn raises on duplicates" true
    (raises_invalid (fun () -> Fault_spec.parse_exn "stale-read:p=0.1;stale-read:p=0.1")
    <> None);
  (* Scheduled kinds may repeat: two crashes, two flaps. *)
  check_bool "repeated node-crash accepted" true
    (match Fault_spec.parse "node-crash@1ms:id=0;node-crash@2ms:id=1" with
    | Ok [ _; _ ] -> true
    | _ -> false);
  check_bool "repeated link-flap accepted" true
    (match Fault_spec.parse "link-flap@1ms:dur=1us;link-flap@2ms:dur=2us" with
    | Ok [ _; _ ] -> true
    | _ -> false)

(* A time whose nanoseconds overflow [int] is an error, not a wrapped
   negative time that fires at the first access. *)
let test_spec_duration_overflow () =
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true
        (match Fault_spec.parse s with Error _ -> true | Ok _ -> false))
    [
      "node-crash@5000000000s:id=1";
      "link-flap@1ms:dur=9223372036854775us";
      "wqe-delay:p=0.1,ns=4611686018427388ms";
    ];
  check_bool "max_int ns accepted" true
    (match Fault_spec.parse (Printf.sprintf "node-crash@%dns:id=1" max_int) with
    | Ok [ Fault_spec.Node_crash { at_ns; _ } ] -> at_ns = max_int
    | _ -> false)

(* A probabilistic kind is armed from the start: a trigger time on it
   would be dropped, so it is refused with the kind named. *)
let test_spec_probabilistic_untimed () =
  List.iter
    (fun (kind, params) ->
      let s = Printf.sprintf "%s@5s:%s" kind params in
      match Fault_spec.parse s with
      | Error m ->
          check_bool (s ^ ": error names the kind") true (contains ~sub:kind m);
          check_bool (s ^ ": error names the trigger") true
            (contains ~sub:"trigger time" m)
      | Ok _ -> Alcotest.failf "accepted %s" s)
    [
      ("rpc-timeout", "p=0.5");
      ("wqe-drop", "p=0.5");
      ("wqe-delay", "p=0.5,ns=1us");
      ("bit-flip", "p=0.5");
      ("torn-write", "p=0.5");
      ("stale-read", "p=0.5");
      ("dup-deliver", "p=0.5");
    ]

(* Random well-formed plans survive a print/parse round trip.  The
   generator respects the grammar's shape: each probabilistic kind at
   most once (crashes and flaps may repeat), probabilities drawn as
   k/1000 so ["%g"] reprints them exactly, and times as positive ns
   (any positive int round-trips through the unit-suffix printer). *)
let plan_gen =
  let open QCheck.Gen in
  let prob = map (fun k -> float_of_int k /. 1000.) (int_range 1 999) in
  let time = int_range 1 5_000_000 in
  let crashes =
    list_size (int_range 0 2)
      (map2 (fun at_ns id -> Fault_spec.Node_crash { at_ns; id }) time (int_range 0 7))
  in
  let flaps =
    list_size (int_range 0 2)
      (map2 (fun at_ns dur_ns -> Fault_spec.Link_flap { at_ns; dur_ns }) time time)
  in
  let partitions =
    list_size (int_range 0 2)
      (map2
         (fun (at_ns, dur_ns) ids -> Fault_spec.Partition { at_ns; dur_ns; ids })
         (pair time time)
         (list_size (int_range 1 3) (int_range 0 7)))
  in
  let maybe g = map (function Some c -> [ c ] | None -> []) (opt g) in
  let p1 mk = maybe (map mk prob) in
  map List.concat
    (flatten_l
       [
         crashes;
         flaps;
         partitions;
         p1 (fun p -> Fault_spec.Rpc_timeout { p });
         p1 (fun p -> Fault_spec.Wqe_drop { p });
         maybe
           (map2
              (fun p delay_ns -> Fault_spec.Wqe_delay { p; delay_ns })
              prob time);
         p1 (fun p -> Fault_spec.Bit_flip { p });
         p1 (fun p -> Fault_spec.Torn_write { p });
         p1 (fun p -> Fault_spec.Stale_read { p });
         p1 (fun p -> Fault_spec.Dup_deliver { p });
       ])

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"fault plans round-trip through to_string/parse"
    ~count:200
    (QCheck.make ~print:Fault_spec.to_string plan_gen)
    (fun plan -> Fault_spec.parse_exn (Fault_spec.to_string plan) = plan)

(* ------------------------------------------------------------------ *)
(* Injector determinism and scheduling *)

let test_injector_deterministic () =
  let plan = Fault_spec.parse_exn "wqe-drop:p=0.2;wqe-delay:p=0.3,ns=100" in
  let draw inj = List.init 200 (fun _ -> Injector.qp_inject inj ()) in
  let a = draw (Injector.create ~seed:7 ~plan) in
  let b = draw (Injector.create ~seed:7 ~plan) in
  let c = draw (Injector.create ~seed:8 ~plan) in
  check_bool "same seed, same decisions" true (a = b);
  check_bool "different seed, different decisions" true (a <> c)

let test_injector_crash_schedule () =
  let plan = Fault_spec.parse_exn "node-crash@1us:id=3;node-crash@2us:id=5" in
  let inj = Injector.create ~seed:1 ~plan in
  check_int "both pending" 2 (Injector.crashes_pending inj);
  check_bool "nothing due early" true (Injector.due_node_crashes inj ~now:500 = []);
  check_bool "first due at 1us" true (Injector.due_node_crashes inj ~now:1_000 = [ 3 ]);
  check_bool "each id returned once" true (Injector.due_node_crashes inj ~now:1_000 = []);
  check_bool "rest due later" true (Injector.due_node_crashes inj ~now:9_999 = [ 5 ]);
  check_int "none pending" 0 (Injector.crashes_pending inj);
  (* A due crash is counted by the runtime that handles it. *)
  check_int "not counted when due" 0
    (List.assoc "node_crashes" (Injector.counters inj));
  Injector.count_crash inj;
  check_int "counted when handled" 1
    (List.assoc "node_crashes" (Injector.counters inj))

let test_injector_link_flaps () =
  let plan =
    Fault_spec.parse_exn "link-flap@1ms:dur=200us;link-flap@3ms:dur=1us"
  in
  check_int "flaps counted as injected at create" 2
    (Injector.injected (Injector.create ~seed:1 ~plan));
  (* The windows are the NIC's: the runtime installs each flap clause. *)
  let nic = Nic.create () in
  let rt =
    Runtime.create
      ~config:{ Runtime.default_config with faults = plan }
      ~nic
      ~controller:(Rack_controller.create ~slab_size:(Units.kib 64) ())
      ~read_local:(fun ~addr:_ ~len -> String.make len '\000')
      ()
  in
  check_int "both windows on the runtime's NIC" 201_000 (Nic.outage_total nic);
  check_int "each flap counted once" 2 (Runtime.count rt "faults.link_flaps")

let test_injector_create_arms_plan () =
  (* A plan given to [create] and the same clauses armed one by one must
     leave identical injectors: one arming rule. *)
  let plan =
    Fault_spec.parse_exn
      "node-crash@2ms:id=1;node-crash@1ms:id=0;link-flap@1ms:dur=200us;\
       link-flap@3ms:dur=1us;partition@2ms:dur=500us,nodes=0|1;\
       rpc-timeout:p=0.1;wqe-drop:p=0.2;wqe-delay:p=0.3,ns=5us;\
       bit-flip:p=0.2;torn-write:p=0.3;stale-read:p=0.4;dup-deliver:p=0.5"
  in
  let created = Injector.create ~seed:7 ~plan in
  let armed = Injector.create ~seed:7 ~plan:[] in
  List.iter (Injector.arm armed) plan;
  check_bool "same counters" true
    (Injector.counters created = Injector.counters armed);
  let crashes inj = Injector.due_node_crashes inj ~now:max_int in
  Alcotest.(check (list int)) "crashes due in time order" [ 0; 1 ]
    (crashes created);
  Alcotest.(check (list int)) "same crash calendar" [ 0; 1 ] (crashes armed);
  let partitions inj = Injector.due_partitions inj ~now:max_int in
  check_bool "same partition calendar" true
    (partitions created = partitions armed);
  let qp inj = List.init 200 (fun _ -> Injector.qp_inject inj ()) in
  check_bool "same qp_inject draws" true (qp created = qp armed);
  let dlv inj =
    List.init 200 (fun _ -> Injector.delivery_inject inj ~targets:3)
  in
  check_bool "same delivery_inject draws" true (dlv created = dlv armed);
  check_bool "the draws injected faults" true (Injector.injected armed > 2)

(* ------------------------------------------------------------------ *)
(* QP retransmission state machine *)

let test_qp_retransmit_backoff () =
  (* Script: the first two transmission attempts are lost, then clean. *)
  let drops = ref 2 in
  let inject () = if !drops > 0 then (decr drops; Some `Drop) else None in
  let clock = Clock.create () in
  let qp = Qp.create ~inject ~clock () in
  let delivered = ref 0 in
  Qp.post qp
    [ Qp.wqe ~signaled:true ~deliver:(fun () -> incr delivered) Qp.Write ~len:64 ];
  Qp.wait_idle qp;
  check_int "delivered exactly once" 1 !delivered;
  check_int "two retransmits" 2 (Qp.retransmits qp);
  (* 8us timer, then doubled: 8_000 + 16_000. *)
  check_int "backoff accumulated" 24_000 (Qp.fault_delay_ns qp);
  check_bool "completion slipped by the backoff" true (Clock.now clock >= 24_000)

let test_qp_delay_injection () =
  let once = ref true in
  let inject () = if !once then (once := false; Some (`Delay 500)) else None in
  let qp = Qp.create ~inject ~clock:(Clock.create ()) () in
  Qp.post qp [ Qp.wqe ~signaled:true Qp.Write ~len:64 ];
  Qp.wait_idle qp;
  check_int "delay recorded" 500 (Qp.fault_delay_ns qp);
  check_int "no retransmits for a delay" 0 (Qp.retransmits qp)

let test_qp_retry_exhausted () =
  let inject () = Some `Drop in
  let qp =
    Qp.create ~inject
      ~backoff:{ Kona_util.Backoff.default with qp_retry_max = 3 }
      ~clock:(Clock.create ()) ()
  in
  match Qp.post qp [ Qp.wqe Qp.Write ~len:64 ] with
  | () -> Alcotest.fail "expected Retry_exhausted"
  | exception Qp.Retry_exhausted { attempts } -> check_int "attempts" 4 attempts

let prop_qp_exactly_once =
  (* Under any loss rate the retransmission machinery delivers each WQE's
     side-effect exactly once, in post order. *)
  QCheck.Test.make ~name:"lossy QP delivers each WQE exactly once, in order"
    ~count:50
    QCheck.(pair small_nat (int_bound 99))
    (fun (seed, pct) ->
      let p = float_of_int pct /. 200. in
      let rng = Rng.create ~seed in
      let inject () = if p > 0. && Rng.float rng 1.0 < p then Some `Drop else None in
      let qp =
        Qp.create ~inject
          ~backoff:{ Kona_util.Backoff.default with qp_retry_max = max_int }
          ~clock:(Clock.create ()) ()
      in
      let n = 40 in
      let delivered = Array.make n 0 in
      let order = ref [] in
      let wqes =
        List.init n (fun i ->
            Qp.wqe ~signaled:true
              ~deliver:(fun () ->
                delivered.(i) <- delivered.(i) + 1;
                order := i :: !order)
              Qp.Write ~len:64)
      in
      Qp.post qp wqes;
      Qp.wait_idle qp;
      Array.for_all (fun c -> c = 1) delivered
      && List.rev !order = List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* RPC timeout / retry *)

let test_rpc_retry () =
  let attempts = ref 0 in
  let fail () = incr attempts; !attempts <= 2 in
  let rpc = Rpc.create ~fail ~clock:(Clock.create ()) ~nic:(Nic.create ()) () in
  let ran = ref 0 in
  let v = Rpc.call rpc ~request_bytes:64 ~response_bytes:64 (fun x -> incr ran; x + 1) 41 in
  check_int "result through retries" 42 v;
  check_int "handler ran exactly once" 1 !ran;
  check_int "two timeouts" 2 (Rpc.timeouts rpc);
  check_int "two resends" 2 (Rpc.retries rpc);
  check_int "one logical call" 1 (Rpc.calls rpc)

let test_rpc_timeout_exhausted () =
  let rpc =
    Rpc.create
      ~backoff:{ Kona_util.Backoff.default with rpc_retry_max = 2 }
      ~fail:(fun () -> true)
      ~clock:(Clock.create ()) ~nic:(Nic.create ()) ()
  in
  let ran = ref 0 in
  match Rpc.call rpc ~request_bytes:8 ~response_bytes:8 (fun () -> incr ran) () with
  | () -> Alcotest.fail "expected Timeout_exhausted"
  | exception Rpc.Timeout_exhausted { attempts } ->
      check_int "attempts" 3 attempts;
      check_int "handler never ran" 0 !ran

let test_rpc_surfaces_transport_death () =
  (* When the request send itself dies (QP out of retransmissions), the
     retry wrapper must surface that underlying exception at exhaustion,
     not mask it as Timeout_exhausted. *)
  let rpc =
    Rpc.create
      ~backoff:{ Kona_util.Backoff.default with rpc_retry_max = 1 }
      ~inject:(fun () -> Some `Drop)
      ~clock:(Clock.create ()) ~nic:(Nic.create ()) ()
  in
  let ran = ref 0 in
  match Rpc.call rpc ~request_bytes:8 ~response_bytes:8 (fun () -> incr ran) () with
  | () -> Alcotest.fail "expected Retry_exhausted"
  | exception Qp.Retry_exhausted _ ->
      check_int "handler never ran" 0 !ran;
      check_int "send failures counted as timeouts" 2 (Rpc.timeouts rpc);
      check_int "one resend before giving up" 1 (Rpc.retries rpc)
  | exception e ->
      Alcotest.failf "underlying exception masked: got %s" (Printexc.to_string e)

let test_rpc_qp_follows_policy () =
  (* The channel's own queue pair retransmits under the policy the
     channel is handed, like a data queue pair built from it: with
     qp_retry_max = 0 a lost SEND gives up after its first attempt. *)
  let backoff =
    { Kona_util.Backoff.default with qp_retry_max = 0; base_ns = 500 }
  in
  let inject () = Some `Drop in
  let attempts f =
    match f () with
    | () -> Alcotest.fail "expected Retry_exhausted"
    | exception Qp.Retry_exhausted { attempts } -> attempts
  in
  let data_qp = Qp.create ~backoff ~inject ~clock:(Clock.create ()) () in
  check_int "a data queue pair gives up after one attempt" 1
    (attempts (fun () -> Qp.post data_qp [ Qp.wqe Qp.Write ~len:8 ]));
  let rpc =
    Rpc.create ~backoff ~inject ~clock:(Clock.create ()) ~nic:(Nic.create ()) ()
  in
  check_int "so does the RPC's request SEND" 1
    (attempts (fun () ->
         Rpc.call rpc ~request_bytes:8 ~response_bytes:8 Fun.id ()))

let test_rpc_handler_exception_no_retry () =
  (* A handler exception means the handler has executed; retrying would
     break exactly-once, so it propagates immediately and untouched. *)
  let rpc = Rpc.create ~clock:(Clock.create ()) ~nic:(Nic.create ()) () in
  let ran = ref 0 in
  (match
     Rpc.call rpc ~request_bytes:8 ~response_bytes:8
       (fun () ->
         incr ran;
         failwith "handler blew up")
       ()
   with
  | () -> Alcotest.fail "expected handler exception"
  | exception Failure msg -> check_string "original exception" "handler blew up" msg);
  check_int "handler ran exactly once" 1 !ran;
  check_int "no retries on handler failure" 0 (Rpc.retries rpc);
  check_int "no timeouts on handler failure" 0 (Rpc.timeouts rpc)

(* ------------------------------------------------------------------ *)
(* Fail-stop memory nodes *)

let test_memory_node_crash () =
  let n = Memory_node.create ~id:9 ~capacity:Units.page_size in
  ignore (Memory_node.reserve n ~size:64 : int);
  Memory_node.write n ~addr:0 ~data:"hello";
  Memory_node.crash n;
  check_bool "not alive" false (Memory_node.alive n);
  (* Metadata stays readable (the controller tracks reservations). *)
  check_int "id" 9 (Memory_node.id n);
  check_int "used" Units.page_size (Memory_node.used n);
  let crashed f = try ignore (f ()); false with Memory_node.Crashed 9 -> true in
  check_bool "read raises" true (crashed (fun () -> Memory_node.peek n ~addr:0 ~len:5));
  check_bool "write raises" true
    (crashed (fun () -> Memory_node.write n ~addr:0 ~data:"x"));
  check_bool "reserve raises" true
    (crashed (fun () -> Memory_node.reserve n ~size:64));
  check_bool "receive_log raises" true
    (crashed (fun () ->
         Memory_node.receive_log n
           [ Memory_node.entry ~addr:0 ~data:(String.make 64 'a') ]))

(* ------------------------------------------------------------------ *)
(* Rack controller: descriptive errors, replace, crash-aware allocation *)

let test_controller_unknown_id_message () =
  let c = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c (Memory_node.create ~id:0 ~capacity:(Units.kib 64));
  match raises_invalid (fun () -> Rack_controller.node c ~id:77) with
  | Some msg -> check_bool "message names the id" true (contains ~sub:"77" msg)
  | None -> Alcotest.fail "expected Invalid_argument"

let test_controller_replace_node () =
  let c = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c (Memory_node.create ~id:0 ~capacity:(Units.kib 64));
  let stand_in = Memory_node.create ~id:500 ~capacity:(Units.kib 64) in
  Rack_controller.add_mirror c ~id:0 stand_in;
  Memory_node.crash (Rack_controller.node c ~id:0);
  check_bool "the mirror is promoted" true
    (match Rack_controller.promote c ~id:0 with Some n -> n == stand_in | None -> false);
  check_int "logical id 0 now backed by 500" 500
    (Memory_node.id (Rack_controller.node c ~id:0));
  check_int "the crashed store is a former backing" 1
    (List.length (Rack_controller.former_backings c ~id:0))

let test_controller_skips_crashed_nodes () =
  let c = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c (Memory_node.create ~id:0 ~capacity:(Units.mib 1));
  Rack_controller.register_node c (Memory_node.create ~id:1 ~capacity:(Units.mib 1));
  Memory_node.crash (Rack_controller.node c ~id:0);
  let s1 = Rack_controller.allocate_slab c ~vaddr:0 in
  let s2 = Rack_controller.allocate_slab c ~vaddr:65536 in
  check_int "crashed node skipped" 1 s1.Slab.node;
  check_int "still skipped" 1 s2.Slab.node

(* ------------------------------------------------------------------ *)
(* Mirror promotion (failover) *)

let replicated_pair () =
  let c = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node c (Memory_node.create ~id:0 ~capacity:(Units.kib 64));
  Rack_controller.register_node c (Memory_node.create ~id:1 ~capacity:(Units.kib 64));
  Rack_controller.replicate c ~degree:1;
  c

let test_failover_promotes_mirror () =
  let c = replicated_pair () in
  let primary = Rack_controller.node c ~id:1 in
  ignore (Memory_node.reserve primary ~size:Units.page_size : int);
  let data = String.make 64 'k' in
  Memory_node.write primary ~addr:128 ~data;
  let mirror = List.hd (Rack_controller.mirrors c ~id:1) in
  Memory_node.write mirror ~addr:128 ~data;
  Memory_node.crash primary;
  (match Rack_controller.promote c ~id:1 with
  | None -> Alcotest.fail "expected promotion"
  | Some promoted ->
      check_int "mirror took over" (Memory_node.id mirror) (Memory_node.id promoted);
      check_int "promotion inherited the brk" (Memory_node.used primary)
        (Memory_node.used promoted));
  check_string "data survives at the logical id" data
    (Memory_node.peek (Rack_controller.node c ~id:1) ~addr:128 ~len:64);
  check_int "failover counted" 1 (Rack_controller.failovers c);
  check_bool "mirror left the mirror set" true (Rack_controller.mirrors c ~id:1 = [])

let test_failover_without_live_mirror () =
  let c = replicated_pair () in
  Memory_node.crash (List.hd (Rack_controller.mirrors c ~id:1));
  Memory_node.crash (Rack_controller.node c ~id:1);
  check_bool "no live mirror to promote" true
    (Rack_controller.promote c ~id:1 = None);
  check_int "no failover counted" 0 (Rack_controller.failovers c)

let test_crash_mirror () =
  let c = replicated_pair () in
  let m = List.hd (Rack_controller.mirrors c ~id:0) in
  check_bool "mirror crash names its primary" true
    (Rack_controller.crash_mirror c ~physical:(Memory_node.id m) = Some 0);
  check_bool "mirror removed" true (Rack_controller.mirrors c ~id:0 = []);
  check_bool "unknown id is not a mirror" true
    (Rack_controller.crash_mirror c ~physical:4242 = None)

let test_divergent_mirrors () =
  let c = replicated_pair () in
  let primary = Rack_controller.node c ~id:0 in
  ignore (Memory_node.reserve primary ~size:Units.page_size : int);
  let mirror = List.hd (Rack_controller.mirrors c ~id:0) in
  Memory_node.write primary ~addr:0 ~data:"same";
  Memory_node.write mirror ~addr:0 ~data:"same";
  check_int "in sync" 0 (Rack_controller.divergent_mirrors c);
  Memory_node.write mirror ~addr:0 ~data:"DIFF";
  check_int "divergence detected" 1 (Rack_controller.divergent_mirrors c);
  Memory_node.crash mirror;
  check_int "a crashed mirror is lost, not divergent" 0
    (Rack_controller.divergent_mirrors c)

(* ------------------------------------------------------------------ *)
(* Runtime-level recovery *)

let make_runtime ?(fmem_pages = 16) ?(replicas = 0) ?(faults = [])
    ?(fault_seed = 42) ?(check_replicas = false) () =
  let controller = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 8));
  Rack_controller.register_node controller
    (Memory_node.create ~id:1 ~capacity:(Units.mib 8));
  let config =
    {
      Runtime.default_config with
      fmem_pages;
      replicas;
      faults;
      fault_seed;
      check_replicas;
    }
  in
  let runtime, heap =
    System.kona ~config ~controller ~heap_capacity:(Units.mib 4) ()
  in
  (runtime, heap, controller)

let scribble ?(writes = 8_000) ?(region = Units.kib 512) heap =
  let rng = Rng.create ~seed:5 in
  let base = Heap.alloc heap region in
  for _ = 1 to writes do
    Heap.write_u64 heap (base + (Rng.int rng ((region - 8) / 8) * 8)) (Rng.int rng 1_000_000)
  done

let integrity_ok runtime heap =
  let c = System.check heap (Runtime.resource_manager runtime) in
  c.System.checked > 0 && c.System.mismatches = 0 && c.System.lost = 0

let test_runtime_crash_failover_end_to_end () =
  let faults = Fault_spec.parse_exn "node-crash@50us:id=1;wqe-drop:p=0.01" in
  let runtime, heap, controller = make_runtime ~replicas:1 ~faults () in
  scribble heap;
  Runtime.drain runtime;
  check_int "crash handled" 1 (Runtime.count runtime "faults.node_crashes");
  check_bool "failover latency recorded" true
    (Kona_util.Histogram.count (Runtime.histogram runtime "failover.latency_ns")
    = 1);
  check_bool "not degraded" true (Runtime.degraded runtime = None);
  check_bool "remote equals heap after failover" true
    (integrity_ok runtime heap);
  check_bool "replication expected" true (Rack_controller.replicas controller > 0);
  check_int "no divergent mirror" 0 (Rack_controller.divergent_mirrors controller);
  check_int "degree restored by re-replication" 1
    (List.length (Rack_controller.mirrors controller ~id:1))

let test_runtime_crash_without_replicas_degrades () =
  let faults = Fault_spec.parse_exn "node-crash@50us:id=1" in
  let runtime, heap, _controller = make_runtime ~faults () in
  scribble heap;
  Runtime.drain runtime;
  (* No exception escaped; the run reports the damage instead. *)
  check_bool "degraded" true (Runtime.degraded runtime <> None)

(* Without leases the crash is detected instantly, but recovery still
   runs on the queue: failover and re-replication both complete before
   [crash_node] returns, and the failover mints a rack-global epoch. *)
let test_runtime_instant_detector () =
  let runtime, heap, controller = make_runtime ~replicas:1 () in
  scribble heap;
  Runtime.crash_node runtime ~id:1;
  check_bool "recovery queue idle on return" true (Runtime.recovery_pending runtime = []);
  check_int "failover + re-replication completed" 2
    (Runtime.count runtime "recovery.tasks_completed");
  check_int "rack-global fencing epoch" 1
    (Rack_controller.fencing_epoch controller);
  Runtime.drain runtime;
  check_bool "not degraded" true (Runtime.degraded runtime = None);
  check_bool "remote equals heap after failover" true
    (integrity_ok runtime heap)

(* The failover's controller RPC exhausts its retries on every attempt:
   the queued task gives up after its bounded steps and degrades. *)
let test_runtime_failover_rpc_exhausted () =
  let runtime, heap, _ = make_runtime ~replicas:1 () in
  scribble heap;
  Runtime.arm_fault runtime (Fault_spec.Rpc_timeout { p = 1.0 });
  Runtime.crash_node runtime ~id:1;
  check_bool "recovery queue idle" true (Runtime.recovery_pending runtime = []);
  let expected = "unreachable after 3 recovery steps" in
  match Runtime.degraded runtime with
  | Some reason ->
      let n = String.length expected in
      let found = ref false in
      for i = 0 to String.length reason - n do
        if String.sub reason i n = expected then found := true
      done;
      check_bool (Printf.sprintf "%S names %S" reason expected) true !found
  | None -> Alcotest.fail "expected a degraded run"

let test_runtime_check_replicas_invariant () =
  let faults = Fault_spec.parse_exn "node-crash@50us:id=1;wqe-drop:p=0.02" in
  let runtime, heap, _ =
    make_runtime ~replicas:2 ~faults ~check_replicas:true ()
  in
  scribble ~writes:3_000 heap;
  Runtime.drain runtime (* would failwith on any divergence *)

let test_runtime_recover_heap () =
  let runtime, heap, _ = make_runtime () in
  scribble heap;
  Runtime.drain runtime;
  let heap2 =
    Heap.create ~capacity:(Heap.capacity heap) ~sink:Kona_trace.Access.Tap.ignore ()
  in
  let restored, lost =
    Runtime.recover_heap runtime ~restore:(fun ~addr ~data ->
        if addr + Units.page_size <= Heap.capacity heap2 then
          Heap.restore_page heap2 ~addr ~data)
  in
  check_bool "pages restored" true (restored > 0);
  check_int "nothing lost" 0 lost;
  let ok = ref true in
  Resource_manager.iter_backed_pages (Runtime.resource_manager runtime)
    (fun ~vpage ~node:_ ~remote_addr:_ ->
      let base = vpage * Units.page_size in
      if base + Units.page_size <= Heap.capacity heap then
        if
          Heap.peek_bytes heap base Units.page_size
          <> Heap.peek_bytes heap2 base Units.page_size
        then ok := false);
  check_bool "recovered heap equals the lost one" true !ok

(* ------------------------------------------------------------------ *)
(* End-to-end properties *)

let prop_readable_after_failover =
  (* Any crash time and seed, with at least one replica: every byte the
     application wrote is still readable from remote memory afterwards. *)
  QCheck.Test.make ~name:"replicated bytes readable after node crash" ~count:15
    QCheck.(triple (1 -- 2) (int_bound 400_000) small_nat)
    (fun (replicas, crash_offset_ns, fault_seed) ->
      let faults =
        Fault_spec.parse_exn
          (Printf.sprintf "node-crash@%dns:id=1;wqe-drop:p=0.01"
             (10_000 + crash_offset_ns))
      in
      let runtime, heap, _ =
        make_runtime ~replicas ~faults ~fault_seed ()
      in
      scribble ~writes:4_000 heap;
      Runtime.drain runtime;
      Runtime.degraded runtime = None && integrity_ok runtime heap)

let prop_seeded_plans_reproducible =
  (* The same plan and seed produce bit-identical runs: every counter and
     both clocks match across two executions. *)
  QCheck.Test.make ~name:"seeded fault plans are bit-reproducible" ~count:10
    QCheck.small_nat
    (fun fault_seed ->
      let run () =
        let faults =
          Fault_spec.parse_exn
            "node-crash@80us:id=1;wqe-drop:p=0.05;wqe-delay:p=0.1,ns=700;rpc-timeout:p=0.2"
        in
        let runtime, heap, _ = make_runtime ~replicas:1 ~faults ~fault_seed () in
        scribble ~writes:3_000 heap;
        Runtime.drain runtime;
        ( Runtime.stats runtime,
          Runtime.app_ns runtime,
          Runtime.bg_ns runtime,
          Injector.counters (Runtime.injector runtime) )
      in
      run () = run ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kona_faults"
    [
      ( "fault_spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "duplicate kinds rejected" `Quick
            test_spec_duplicate_kinds;
          Alcotest.test_case "overflowing duration rejected" `Quick
            test_spec_duration_overflow;
          Alcotest.test_case "timed probabilistic kind rejected" `Quick
            test_spec_probabilistic_untimed;
          QCheck_alcotest.to_alcotest ~long:false prop_spec_roundtrip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "crash schedule" `Quick test_injector_crash_schedule;
          Alcotest.test_case "link flaps" `Quick test_injector_link_flaps;
          Alcotest.test_case "create arms through arm" `Quick
            test_injector_create_arms_plan;
        ] );
      ( "qp-retransmit",
        [
          Alcotest.test_case "backoff" `Quick test_qp_retransmit_backoff;
          Alcotest.test_case "delay" `Quick test_qp_delay_injection;
          Alcotest.test_case "retry exhausted" `Quick test_qp_retry_exhausted;
        ] );
      ( "qp-retransmit-props",
        [ QCheck_alcotest.to_alcotest ~long:false prop_qp_exactly_once ] );
      ( "rpc",
        [
          Alcotest.test_case "retry" `Quick test_rpc_retry;
          Alcotest.test_case "timeout exhausted" `Quick test_rpc_timeout_exhausted;
          Alcotest.test_case "transport death surfaces" `Quick
            test_rpc_surfaces_transport_death;
          Alcotest.test_case "handler exception not retried" `Quick
            test_rpc_handler_exception_no_retry;
          Alcotest.test_case "queue pair follows the backoff policy" `Quick
            test_rpc_qp_follows_policy;
        ] );
      ( "memory-node",
        [ Alcotest.test_case "fail-stop" `Quick test_memory_node_crash ] );
      ( "controller",
        [
          Alcotest.test_case "unknown id names id" `Quick
            test_controller_unknown_id_message;
          Alcotest.test_case "replace node" `Quick test_controller_replace_node;
          Alcotest.test_case "skips crashed nodes" `Quick
            test_controller_skips_crashed_nodes;
        ] );
      ( "replication",
        [
          Alcotest.test_case "failover promotes mirror" `Quick
            test_failover_promotes_mirror;
          Alcotest.test_case "failover without live mirror" `Quick
            test_failover_without_live_mirror;
          Alcotest.test_case "crash mirror" `Quick test_crash_mirror;
          Alcotest.test_case "divergent mirrors" `Quick test_divergent_mirrors;
        ] );
      ( "runtime-recovery",
        [
          Alcotest.test_case "crash + failover end to end" `Quick
            test_runtime_crash_failover_end_to_end;
          Alcotest.test_case "no replicas degrades" `Quick
            test_runtime_crash_without_replicas_degrades;
          Alcotest.test_case "instant detector pumps the queue" `Quick
            test_runtime_instant_detector;
          Alcotest.test_case "failover rpc exhausted degrades" `Quick
            test_runtime_failover_rpc_exhausted;
          Alcotest.test_case "check-replicas invariant" `Quick
            test_runtime_check_replicas_invariant;
          Alcotest.test_case "recover heap" `Quick test_runtime_recover_heap;
        ] );
      ( "recovery-props",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_readable_after_failover;
          QCheck_alcotest.to_alcotest ~long:false prop_seeded_plans_reproducible;
        ] );
    ]
