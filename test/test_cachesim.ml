(* Tests for Kona_cachesim: single-level cache behaviour and the 3-level
   inclusive hierarchy with its fill/writeback event streams. *)

open Kona_cachesim
module Access = Kona_trace.Access

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cache ?(size = 512) ?(assoc = 2) ?(block = 64) () =
  Cache.create ~name:"test" ~size ~assoc ~block

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_miss () =
  let c = small_cache () in
  (match Cache.access c ~addr:0 ~write:false with
  | Cache.Miss None -> ()
  | _ -> Alcotest.fail "cold access must miss with no victim");
  (match Cache.access c ~addr:32 ~write:false with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "same line must hit");
  let s = Cache.stats c in
  check_int "reads" 2 s.Cache.reads;
  check_int "read misses" 1 s.Cache.read_misses

let test_cache_lru_eviction () =
  (* 512B, 2-way, 64B blocks -> 4 sets. Lines 0, 4, 8 map to set 0. *)
  let c = small_cache () in
  let addr line = line * 64 in
  ignore (Cache.access c ~addr:(addr 0) ~write:false);
  ignore (Cache.access c ~addr:(addr 4) ~write:false);
  ignore (Cache.access c ~addr:(addr 0) ~write:false) (* refresh line 0 *);
  (match Cache.access c ~addr:(addr 8) ~write:false with
  | Cache.Miss (Some v) -> check_int "LRU victim is line 4" (addr 4) v.Cache.block_addr
  | _ -> Alcotest.fail "expected eviction");
  check_bool "line 0 kept" true (Cache.probe c ~addr:(addr 0));
  check_bool "line 4 gone" false (Cache.probe c ~addr:(addr 4))

let test_cache_dirty_writeback () =
  let c = small_cache () in
  let addr line = line * 64 in
  ignore (Cache.access c ~addr:(addr 0) ~write:true);
  check_bool "dirty after write" true (Cache.is_dirty c ~addr:(addr 0));
  ignore (Cache.access c ~addr:(addr 4) ~write:false);
  (match Cache.access c ~addr:(addr 8) ~write:false with
  | Cache.Miss (Some v) ->
      check_int "victim addr" (addr 0) v.Cache.block_addr;
      check_bool "victim dirty" true v.Cache.dirty
  | _ -> Alcotest.fail "expected dirty eviction");
  check_int "dirty evictions counted" 1 (Cache.stats c).Cache.dirty_evictions

let test_cache_flush_and_set_dirty () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:100 ~write:false);
  check_bool "set_dirty on resident" true (Cache.set_dirty c ~addr:100);
  (match Cache.flush_block c ~addr:100 with
  | Some v -> check_bool "flushed dirty" true v.Cache.dirty
  | None -> Alcotest.fail "expected resident block");
  check_bool "gone after flush" false (Cache.probe c ~addr:100);
  check_bool "set_dirty on absent" false (Cache.set_dirty c ~addr:100);
  Alcotest.(check (option reject)) "flush absent" None (Cache.flush_block c ~addr:100)

let test_cache_create_validation () =
  check_bool "bad block" true
    (try
       ignore (Cache.create ~name:"x" ~size:512 ~assoc:2 ~block:65);
       false
     with Invalid_argument _ -> true);
  check_bool "bad size" true
    (try
       ignore (Cache.create ~name:"x" ~size:500 ~assoc:2 ~block:64);
       false
     with Invalid_argument _ -> true)

let prop_cache_capacity =
  QCheck.Test.make ~name:"resident blocks never exceed capacity" ~count:100
    QCheck.(list_of_size Gen.(50 -- 200) (int_bound 10_000))
    (fun addrs ->
      let c = small_cache () in
      List.iter (fun addr -> ignore (Cache.access c ~addr ~write:false)) addrs;
      let resident = ref 0 in
      Cache.iter_resident c (fun ~block_addr:_ ~dirty:_ -> incr resident);
      !resident <= 512 / 64)

let prop_cache_hit_after_access =
  QCheck.Test.make ~name:"probe hits immediately after access" ~count:200
    QCheck.(int_bound 100_000)
    (fun addr ->
      let c = small_cache () in
      ignore (Cache.access c ~addr ~write:false);
      Cache.probe c ~addr)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let tiny_config =
  {
    Hierarchy.l1 = { Hierarchy.size = 512; assoc = 2 };
    l2 = { Hierarchy.size = 1024; assoc = 2 };
    llc = { Hierarchy.size = 2048; assoc = 4 };
  }

let test_hierarchy_levels () =
  let h = Hierarchy.create ~config:tiny_config () in
  check_int "first access goes to memory" 4 (Hierarchy.access_line h ~addr:0 ~write:false);
  check_int "second hits L1" 1 (Hierarchy.access_line h ~addr:0 ~write:false);
  check_int "memory accesses" 1 (Hierarchy.memory_accesses h)

let test_hierarchy_fill_events () =
  let fills = ref [] in
  let h =
    Hierarchy.create ~config:tiny_config
      ~on_fill:(fun ~addr ~write -> fills := (addr, write) :: !fills)
      ()
  in
  ignore (Hierarchy.access_line h ~addr:70 ~write:true);
  ignore (Hierarchy.access_line h ~addr:70 ~write:false);
  Alcotest.(check (list (pair int bool))) "one fill, write-flagged" [ (64, true) ] !fills

let test_hierarchy_writeback_reaches_memory () =
  (* Write a line, then stream enough conflicting lines to push it out of
     all three levels; the dirty line must surface exactly once. *)
  let writebacks = ref [] in
  let h =
    Hierarchy.create ~config:tiny_config
      ~on_writeback:(fun ~addr -> writebacks := addr :: !writebacks)
      ()
  in
  ignore (Hierarchy.access_line h ~addr:0 ~write:true);
  for i = 1 to 512 do
    ignore (Hierarchy.access_line h ~addr:(i * 64) ~write:false)
  done;
  check_bool "dirty line written back" true (List.mem 0 !writebacks);
  check_int "exactly once" 1 (List.length (List.filter (fun a -> a = 0) !writebacks))

let test_hierarchy_flush_page () =
  let h = Hierarchy.create ~config:tiny_config () in
  ignore (Hierarchy.access_line h ~addr:4096 ~write:true);
  ignore (Hierarchy.access_line h ~addr:4160 ~write:false);
  let dirty = Hierarchy.flush_page h ~page:1 in
  Alcotest.(check (list int)) "only written line dirty" [ 4096 ] dirty;
  check_int "line gone from caches" 4 (Hierarchy.access_line h ~addr:4096 ~write:false);
  Alcotest.(check (list int)) "second flush finds nothing" []
    (Hierarchy.flush_page h ~page:1)

let test_hierarchy_resident_dirty () =
  let h = Hierarchy.create ~config:tiny_config () in
  ignore (Hierarchy.access_line h ~addr:8192 ~write:true);
  Alcotest.(check (list int)) "resident dirty" [ 8192 ]
    (Hierarchy.resident_dirty_lines h ~page:2);
  Alcotest.(check (list int)) "still resident (no invalidate)" [ 8192 ]
    (Hierarchy.resident_dirty_lines h ~page:2)

let prop_no_lost_writes =
  (* Every written line is either still resident (dirty) or was written
     back: stream random accesses, then flush everything and check the
     union of writebacks + flush results covers all written lines. *)
  QCheck.Test.make ~name:"hierarchy never loses a dirty line" ~count:50
    QCheck.(list_of_size Gen.(1 -- 300) (pair (int_bound 16_383) bool))
    (fun ops ->
      let writebacks = Hashtbl.create 64 in
      let h =
        Hierarchy.create ~config:tiny_config
          ~on_writeback:(fun ~addr -> Hashtbl.replace writebacks addr ())
          ()
      in
      let written = Hashtbl.create 64 in
      List.iter
        (fun (addr, write) ->
          if write then
            Hashtbl.replace written (Kona_util.Units.align_down addr ~alignment:64) ();
          ignore (Hierarchy.access_line h ~addr ~write))
        ops;
      for page = 0 to 3 do
        List.iter (fun a -> Hashtbl.replace writebacks a ()) (Hierarchy.flush_page h ~page)
      done;
      Hashtbl.fold (fun addr () acc -> acc && Hashtbl.mem writebacks addr) written true)

(* 3, 9 and 15 sets: set indexing by [mod] rather than by a power-of-two
   mask, with an odd LLC associativity. *)
let odd_sets_config =
  {
    Hierarchy.l1 = { Hierarchy.size = 384; assoc = 2 };
    l2 = { Hierarchy.size = 1152; assoc = 2 };
    llc = { Hierarchy.size = 2880; assoc = 3 };
  }

type hierarchy_op = Line of int * bool | Flush of int

(* Lines and flushes come from the first four pages and from the four pages
   at the rack's shared-segment base (1 GiB), so the hierarchy's snoop
   filter spans two distant chunks. *)
let arb_hierarchy_ops =
  let region = QCheck.Gen.oneofl [ 0; 1 lsl 30 ] in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 8,
            map3
              (fun base addr write -> Line (base + addr, write))
              region (int_bound 16_383) bool );
          ( 1,
            map2
              (fun base page -> Flush ((base / Kona_util.Units.page_size) + page))
              region (int_bound 3) );
        ])
  in
  let print = function
    | Line (addr, write) -> Printf.sprintf "%c%d" (if write then 'W' else 'R') addr
    | Flush page -> Printf.sprintf "F%d" page
  in
  QCheck.make
    ~print:QCheck.Print.(list print)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (1 -- 300) op)

(* Every block of [upper] is resident in [lower]. *)
let contained upper lower =
  let ok = ref true in
  Cache.iter_resident upper (fun ~block_addr ~dirty:_ ->
      if not (Cache.probe lower ~addr:block_addr) then ok := false);
  !ok

let prop_inclusion_and_snoop =
  (* [flush_page] visits only the lines its snoop filter lists and searches
     L1/L2 only for lines the LLC holds, which is exact only while the
     filter matches the LLC and L1 ⊆ L2 ⊆ LLC: check inclusion after every
     op, and that each flush returns the dirty lines a full probe finds
     just before it and leaves none of the page anywhere. *)
  QCheck.Test.make ~name:"inclusive, flush = resident dirty" ~count:100
    arb_hierarchy_ops (fun ops ->
      List.for_all
        (fun config ->
          let h = Hierarchy.create ~config () in
          let levels = [ Hierarchy.l1 h; Hierarchy.l2 h; Hierarchy.llc h ] in
          let gone page =
            List.for_all
              (fun i ->
                let addr = (page * Kona_util.Units.page_size) + (i * 64) in
                List.for_all (fun cache -> not (Cache.probe cache ~addr)) levels)
              (List.init Kona_util.Units.lines_per_page Fun.id)
          in
          List.for_all
            (fun op ->
              (match op with
              | Line (addr, write) ->
                  ignore (Hierarchy.access_line h ~addr ~write : int);
                  true
              | Flush page ->
                  let expected = Hierarchy.resident_dirty_lines h ~page in
                  Hierarchy.flush_page h ~page = expected && gone page)
              && contained (Hierarchy.l1 h) (Hierarchy.l2 h)
              && contained (Hierarchy.l2 h) (Hierarchy.llc h))
            ops)
        [ tiny_config; odd_sets_config; Hierarchy.default_config ])

(* A reference model: fully-associative LRU as a plain list.  A Cache
   configured with a single set must agree with it exactly. *)
let prop_cache_matches_lru_model =
  QCheck.Test.make ~name:"single-set cache == list-based LRU model" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (pair (int_bound 2_000) bool))
    (fun ops ->
      let ways = 4 in
      let c = Cache.create ~name:"ref" ~size:(ways * 64) ~assoc:ways ~block:64 in
      let model = ref [] (* MRU first; (block, dirty) *) in
      List.for_all
        (fun (addr, write) ->
          let block = addr / 64 * 64 in
          let model_hit = List.mem_assoc block !model in
          (if model_hit then begin
             let dirty = List.assoc block !model || write in
             model := (block, dirty) :: List.remove_assoc block !model
           end
           else begin
             let kept = if List.length !model >= ways then
                 List.filteri (fun i _ -> i < ways - 1) !model
               else !model
             in
             model := (block, write) :: kept
           end);
          match Cache.access c ~addr ~write with
          | Cache.Hit -> model_hit
          | Cache.Miss _ -> not model_hit)
        ops)

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_cache_dirty_writeback;
          Alcotest.test_case "flush + set_dirty" `Quick test_cache_flush_and_set_dirty;
          Alcotest.test_case "create validation" `Quick test_cache_create_validation;
        ] );
      qsuite "cache-props"
        [ prop_cache_capacity; prop_cache_hit_after_access; prop_cache_matches_lru_model ];
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "fill events" `Quick test_hierarchy_fill_events;
          Alcotest.test_case "writeback reaches memory" `Quick
            test_hierarchy_writeback_reaches_memory;
          Alcotest.test_case "flush page" `Quick test_hierarchy_flush_page;
          Alcotest.test_case "resident dirty lines" `Quick test_hierarchy_resident_dirty;
        ] );
      qsuite "hierarchy-props" [ prop_no_lost_writes; prop_inclusion_and_snoop ];
    ]
