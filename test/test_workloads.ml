(* Tests for Kona_workloads: the instrumented heap and each Table 2
   application's correctness + instrumentation coverage. *)

open Kona_workloads
module Access = Kona_trace.Access
module Rng = Kona_util.Rng
module Units = Kona_util.Units

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A sink plus a getter for how many events it absorbed. *)
let counting () =
  let n = ref 0 in
  ((fun (_ : Access.t) -> incr n), fun () -> !n)

let quiet_heap ?capacity () = Heap.create ?capacity ~sink:Access.Tap.ignore ()

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_rw_roundtrip () =
  let h = quiet_heap () in
  let a = Heap.alloc h 64 in
  Heap.write_u64 h a 0x1122334455;
  check_int "u64" 0x1122334455 (Heap.read_u64 h a);
  Heap.write_u32 h (a + 8) 0xdeadbeef;
  check_int "u32" 0xdeadbeef (Heap.read_u32 h (a + 8));
  Heap.write_f64 h (a + 16) 3.25;
  Alcotest.(check (float 0.)) "f64" 3.25 (Heap.read_f64 h (a + 16));
  Heap.write_string h (a + 24) "hello";
  Alcotest.(check string) "bytes" "hello" (Heap.read_bytes h (a + 24) 5);
  check_bool "memcmp equal" true (Heap.memcmp h (a + 24) "hello");
  check_bool "memcmp differs" false (Heap.memcmp h (a + 24) "hellx")

let test_heap_alloc_no_overlap () =
  let h = quiet_heap () in
  let blocks = List.init 100 (fun i -> (Heap.alloc h (8 + (i mod 40)), 8 + (i mod 40))) in
  let sorted = List.sort compare blocks in
  let rec no_overlap = function
    | (a1, l1) :: ((a2, _) :: _ as rest) ->
        check_bool "disjoint" true (a1 + l1 <= a2);
        no_overlap rest
    | _ -> ()
  in
  no_overlap sorted

let test_heap_free_reuse () =
  let h = quiet_heap () in
  let a = Heap.alloc h 128 in
  Heap.free h ~addr:a ~len:128;
  let b = Heap.alloc h 128 in
  check_int "exact-size block reused" a b

let test_heap_events () =
  let events = ref [] in
  let h = Heap.create ~sink:(fun e -> events := e :: !events) () in
  let a = Heap.alloc h 16 in
  Heap.write_u64 h a 1;
  ignore (Heap.read_u64 h a);
  Heap.write_string h (a + 8) "xy";
  (match List.rev !events with
  | [ w1; r1; w2 ] ->
      check_bool "w1 is write" true (Access.is_write w1);
      check_int "w1 len" 8 w1.Access.len;
      check_int "w1 addr" a w1.Access.addr;
      check_bool "r1 is read" false (Access.is_write r1);
      check_int "w2 len" 2 w2.Access.len
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l));
  (* instrumentation never lies about the heap contents *)
  check_int "backing store updated" 1 (Heap.peek_u64 h a)

let test_heap_bounds () =
  let h = quiet_heap ~capacity:(Units.mib 1) () in
  Alcotest.check_raises "below base"
    (Invalid_argument
       (Printf.sprintf "Heap: access [0x10,+8) outside arena [%#x,%#x)" 4096
          (Units.mib 1))) (fun () -> ignore (Heap.read_u64 h 16));
  check_bool "oom raised" true
    (try
       ignore (Heap.alloc h (Units.mib 2));
       false
     with Out_of_memory -> true)

let test_heap_restore_page () =
  (* restore_page: uninstrumented, byte-exact, validated *)
  let count, get = counting () in
  let h = Heap.create ~capacity:(Units.mib 1) ~sink:count () in
  let a = Heap.alloc h Units.page_size in
  Heap.write_u64 h a 1;
  Heap.restore_page h ~addr:a ~data:(String.make Units.page_size 'z');
  check_int "no events from restore" 1 (get ());
  Alcotest.(check string) "restored" (String.make 8 'z') (Heap.peek_bytes h a 8);
  check_bool "unaligned restore rejected" true
    (try
       Heap.restore_page h ~addr:(a + 1) ~data:(String.make Units.page_size 'z');
       false
     with Invalid_argument _ -> true)

let test_heap_poked_pages () =
  let h = quiet_heap () in
  let a = Heap.alloc h (2 * Units.page_size) in
  Heap.poke_f64 h a 1.5;
  check_bool "poked page flagged" true (Heap.page_poked h ~page:(a / Units.page_size));
  check_bool "other page clean" false
    (Heap.page_poked h ~page:((a / Units.page_size) + 1));
  Heap.write_u64 h (a + Units.page_size) 7;
  check_bool "instrumented write does not poke" false
    (Heap.page_poked h ~page:((a / Units.page_size) + 1))

let prop_heap_alloc_aligned =
  QCheck.Test.make ~name:"alloc respects alignment" ~count:200
    QCheck.(pair (int_range 1 500) (int_bound 3))
    (fun (size, align_pow) ->
      let h = quiet_heap () in
      let align = 8 lsl align_pow in
      Heap.alloc h ~align size mod align = 0)

(* ------------------------------------------------------------------ *)
(* Kv_store *)

let test_kv_set_get () =
  let h = quiet_heap () in
  let kv = Kv_store.create h ~nbuckets:64 in
  Kv_store.set kv "a" "1";
  Kv_store.set kv "b" "2";
  Alcotest.(check (option string)) "get a" (Some "1") (Kv_store.get kv "a");
  Alcotest.(check (option string)) "get b" (Some "2") (Kv_store.get kv "b");
  Alcotest.(check (option string)) "miss" None (Kv_store.get kv "c");
  Kv_store.set kv "a" "9";
  Alcotest.(check (option string)) "overwrite same size" (Some "9") (Kv_store.get kv "a");
  Kv_store.set kv "a" "longer-value";
  Alcotest.(check (option string))
    "overwrite new size" (Some "longer-value") (Kv_store.get kv "a");
  check_int "entries" 2 (Kv_store.entries kv)

let test_kv_many_collisions () =
  (* A 2-bucket table forces long chains; all keys must still resolve. *)
  let h = quiet_heap () in
  let kv = Kv_store.create h ~nbuckets:2 in
  for i = 0 to 199 do
    Kv_store.set kv (Kv_store.key_of_int i) (string_of_int i)
  done;
  for i = 0 to 199 do
    Alcotest.(check (option string))
      "chained lookup" (Some (string_of_int i))
      (Kv_store.get kv (Kv_store.key_of_int i))
  done;
  (* Resize one mid-chain entry and make sure the chain survives relinking. *)
  Kv_store.set kv (Kv_store.key_of_int 100) "a-very-different-length-value";
  for i = 98 to 102 do
    check_bool "chain intact" true (Kv_store.get kv (Kv_store.key_of_int i) <> None)
  done

let test_kv_driver () =
  let h = quiet_heap ~capacity:(Units.mib 8) () in
  let kv = Kv_store.create h ~nbuckets:1024 in
  let rng = Rng.create ~seed:1 in
  let r =
    Kv_store.run_driver kv ~rng ~pattern:Kv_store.Rand ~keys:500 ~ops:2_000
      ~value_len:64 ~set_ratio:0.5
  in
  check_int "ops accounted" 2_000 (r.Kv_store.sets - 500 + r.Kv_store.gets);
  check_int "all gets hit" r.Kv_store.gets r.Kv_store.hits

let prop_kv_model =
  (* Against a Hashtbl model: arbitrary set/get interleavings agree. *)
  QCheck.Test.make ~name:"kv_store agrees with Hashtbl model" ~count:60
    QCheck.(small_list (pair (int_bound 30) (option (int_bound 1000))))
    (fun ops ->
      let h = quiet_heap () in
      let kv = Kv_store.create h ~nbuckets:8 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, op) ->
          let key = "k" ^ string_of_int k in
          match op with
          | Some v ->
              let value = String.make (1 + (v mod 20)) 'x' ^ string_of_int v in
              Kv_store.set kv key value;
              Hashtbl.replace model key value;
              Kv_store.entries kv = Hashtbl.length model
          | None -> Kv_store.get kv key = Hashtbl.find_opt model key)
        ops)

(* ------------------------------------------------------------------ *)
(* Graph + algorithms *)

let small_graph ?(vertices = 300) ?(avg_degree = 6) ?(seed = 11) () =
  let h = quiet_heap ~capacity:(Units.mib 8) () in
  Graph.generate h ~rng:(Rng.create ~seed) ~vertices ~avg_degree

let test_graph_structure () =
  let g = small_graph () in
  check_int "vertices" 300 (Graph.vertex_count g);
  let total_degree = ref 0 in
  for v = 0 to 299 do
    total_degree := !total_degree + Graph.degree g v
  done;
  check_int "sum of degrees even (undirected)" 0 (!total_degree mod 2);
  (* neighbours are valid vertex ids and no self-loops *)
  for v = 0 to 299 do
    Graph.iter_neighbors g v (fun u ->
        check_bool "valid id" true (u >= 0 && u < 300);
        check_bool "no self loop" true (u <> v))
  done

let test_pagerank_mass () =
  let g = small_graph () in
  let sum = Graph_algos.pagerank g ~iterations:5 in
  (* Push PageRank conserves (1-d) + d * mass of non-dangling vertices;
     with few dangling vertices the sum stays near 1. *)
  check_bool "mass in range" true (sum > 0.5 && sum < 1.05)

let test_coloring_proper () =
  let g = small_graph () in
  let r = Graph_algos.coloring g in
  check_bool "proper" true
    (Graph_algos.Check.coloring_is_proper g ~colors_addr:r.Graph_algos.colors_addr);
  check_bool "uses few colors" true (r.Graph_algos.colors_used <= 64)

let test_components () =
  let g = small_graph () in
  let r = Graph_algos.connected_components g in
  check_bool "consistent" true
    (Graph_algos.Check.components_consistent g ~comp_addr:r.Graph_algos.comp_addr);
  check_bool "count sane" true
    (r.Graph_algos.component_count >= 1 && r.Graph_algos.component_count <= 300)

let test_label_propagation () =
  let g = small_graph () in
  let labels = Graph_algos.label_propagation g ~iterations:4 in
  check_bool "labels shrink" true (labels >= 1 && labels < 300)

(* ------------------------------------------------------------------ *)
(* Mapreduce *)

let test_linear_regression_fit () =
  let h = quiet_heap ~capacity:(Units.mib 8) () in
  let r =
    Mapreduce.linear_regression h ~rng:(Rng.create ~seed:5) ~points:5_000 ~chunk:512
  in
  check_bool "slope ~ 2" true (abs_float (r.Mapreduce.slope -. 2.0) < 0.05);
  check_bool "intercept ~ 1" true (abs_float (r.Mapreduce.intercept -. 1.0) < 0.05)

let test_histogram_conservation () =
  let h = quiet_heap ~capacity:(Units.mib 8) () in
  let total = Mapreduce.histogram h ~rng:(Rng.create ~seed:5) ~samples:10_000 ~bins:64 in
  check_int "no sample lost" 10_000 total

(* ------------------------------------------------------------------ *)
(* Column store *)

let test_column_store_mix () =
  let h = quiet_heap ~capacity:(Units.mib 8) () in
  let s = Column_store.create h ~warehouses:2 ~items:500 ~customers:300 ~max_orders:2_000 in
  let stats = Column_store.run_mix s ~rng:(Rng.create ~seed:2) ~transactions:2_000 in
  check_int "orders recorded" stats.Column_store.new_orders (Column_store.order_count s);
  check_bool "rollbacks rare" true
    (stats.Column_store.rollbacks * 20 < stats.Column_store.new_orders + 1000);
  check_bool "payments happened" true (stats.Column_store.payments > 0)

(* ------------------------------------------------------------------ *)
(* Registry: every workload runs clean at Smoke scale and emits a
   plausible access stream. *)

let registry_case (spec : Workloads.spec) =
  Alcotest.test_case spec.Workloads.name `Quick (fun () ->
      let count, get = counting () in
      let writes, get_writes = counting () in
      let sink = Access.Tap.tee [ count; (fun e -> if Access.is_write e then writes e) ] in
      let heap =
        Heap.create ~capacity:(spec.Workloads.heap_capacity Workloads.Smoke) ~sink ()
      in
      spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
      check_bool "emits accesses" true (get () > 1_000);
      check_bool "emits writes" true (get_writes () > 100);
      check_bool "uses the arena" true (Heap.used heap > Units.kib 16))

let test_extensions () =
  let zipf = Workloads.find "Redis-Zipf" in
  let count, get = counting () in
  let heap =
    Heap.create ~capacity:(zipf.Workloads.heap_capacity Workloads.Smoke) ~sink:count ()
  in
  zipf.Workloads.run Workloads.Smoke ~heap ~seed:42;
  check_bool "zipf extension runs" true (get () > 1000)

let test_registry_complete () =
  Alcotest.(check (list string))
    "Table 2 rows"
    [
      "Redis-Rand";
      "Redis-Seq";
      "Linear Regression";
      "Histogram";
      "Page Rank";
      "Graph Coloring";
      "Connected Components";
      "Label Propagation";
      "VoltDB";
    ]
    (List.map (fun (s : Workloads.spec) -> s.Workloads.name) Workloads.all)

let test_rand_amplifies_more_than_seq () =
  (* The motivating Table 2 contrast, as an invariant over the workload
     generators themselves. *)
  let module Amp = Kona_trace.Amplification in
  let module Window = Kona_trace.Window in
  let amp_of (spec : Workloads.spec) =
    let amp = Amp.create () in
    let w =
      Window.create
        ~quantum:(spec.Workloads.quantum Workloads.Smoke)
        ~inner:(Amp.sink amp)
        ~on_boundary:(fun ~window -> Amp.close_window amp ~window)
    in
    let heap =
      Heap.create
        ~capacity:(spec.Workloads.heap_capacity Workloads.Smoke)
        ~sink:(Window.sink w) ()
    in
    spec.Workloads.run Workloads.Smoke ~heap ~seed:42;
    Window.flush w;
    (Amp.aggregate ~drop_last:true amp).Amp.agg_amp_page
  in
  let rand = amp_of Workloads.redis_rand and seq = amp_of Workloads.redis_seq in
  check_bool
    (Printf.sprintf "rand (%.2f) amplifies more than seq (%.2f)" rand seq)
    true (rand > 1.5 *. seq)

let test_workload_determinism () =
  (* Same seed => identical access streams. *)
  let stream seed =
    let acc = ref [] in
    let heap =
      Heap.create
        ~capacity:(Workloads.redis_rand.Workloads.heap_capacity Workloads.Smoke)
        ~sink:(fun e -> acc := e :: !acc)
        ()
    in
    Workloads.redis_rand.Workloads.run Workloads.Smoke ~heap ~seed;
    !acc
  in
  check_bool "identical streams" true (stream 7 = stream 7);
  check_bool "different seeds differ" true (stream 7 <> stream 8)

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_workloads"
    [
      ( "heap",
        [
          Alcotest.test_case "read/write roundtrip" `Quick test_heap_rw_roundtrip;
          Alcotest.test_case "alloc no overlap" `Quick test_heap_alloc_no_overlap;
          Alcotest.test_case "free reuse" `Quick test_heap_free_reuse;
          Alcotest.test_case "event emission" `Quick test_heap_events;
          Alcotest.test_case "bounds" `Quick test_heap_bounds;
          Alcotest.test_case "restore_page" `Quick test_heap_restore_page;
          Alcotest.test_case "poked pages" `Quick test_heap_poked_pages;
        ] );
      qsuite "heap-props" [ prop_heap_alloc_aligned ];
      ( "kv_store",
        [
          Alcotest.test_case "set/get" `Quick test_kv_set_get;
          Alcotest.test_case "collisions & resize" `Quick test_kv_many_collisions;
          Alcotest.test_case "driver" `Quick test_kv_driver;
        ] );
      qsuite "kv-props" [ prop_kv_model ];
      ( "graph",
        [
          Alcotest.test_case "structure" `Quick test_graph_structure;
          Alcotest.test_case "pagerank mass" `Quick test_pagerank_mass;
          Alcotest.test_case "coloring proper" `Quick test_coloring_proper;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "label propagation" `Quick test_label_propagation;
        ] );
      ( "mapreduce",
        [
          Alcotest.test_case "linear regression fit" `Quick test_linear_regression_fit;
          Alcotest.test_case "histogram conservation" `Quick test_histogram_conservation;
        ] );
      ("column_store", [ Alcotest.test_case "tpcc mix" `Quick test_column_store_mix ]);
      ( "registry",
        Alcotest.test_case "Table 2 rows" `Quick test_registry_complete
        :: Alcotest.test_case "extensions (Redis-Zipf)" `Quick test_extensions
        :: List.map registry_case Workloads.all );
      ( "determinism",
        [ Alcotest.test_case "seeded streams" `Quick test_workload_determinism ] );
      ( "amplification-contrast",
        [
          Alcotest.test_case "rand > seq (Table 2 shape)" `Quick
            test_rand_amplifies_more_than_seq;
        ] );
    ]
