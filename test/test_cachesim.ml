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
  check_bool "cold access misses" false (Cache.access c ~addr:0 ~write:false);
  check_int "with no victim" (-1) (Cache.victim c);
  check_bool "same line hits" true (Cache.access c ~addr:32 ~write:false);
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
  check_bool "line 8 misses" false (Cache.access c ~addr:(addr 8) ~write:false);
  check_int "LRU victim is line 4" (addr 4) (Cache.victim c);
  check_bool "line 0 kept" true (Cache.probe c ~addr:(addr 0));
  check_bool "line 4 gone" false (Cache.probe c ~addr:(addr 4))

let test_cache_dirty_writeback () =
  let c = small_cache () in
  let addr line = line * 64 in
  ignore (Cache.access c ~addr:(addr 0) ~write:true);
  check_bool "dirty after write" true (Cache.is_dirty c ~addr:(addr 0));
  ignore (Cache.access c ~addr:(addr 4) ~write:false);
  check_bool "line 8 misses" false (Cache.access c ~addr:(addr 8) ~write:false);
  check_int "victim addr" (addr 0) (Cache.victim c);
  check_bool "victim dirty" true (Cache.victim_dirty c);
  check_int "dirty evictions counted" 1 (Cache.stats c).Cache.dirty_evictions

let test_cache_flush_and_set_dirty () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:100 ~write:false);
  check_bool "set_dirty on resident" true (Cache.set_dirty c ~addr:100);
  check_bool "flushed dirty" true (Cache.flush_block c ~addr:100 = Cache.Dirty);
  check_bool "gone after flush" false (Cache.probe c ~addr:100);
  check_bool "set_dirty on absent" false (Cache.set_dirty c ~addr:100);
  check_bool "flush absent" true (Cache.flush_block c ~addr:100 = Cache.Absent)

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

(* Reference for [Hierarchy.flush_page]: the lines of [page] dirty in any
   level, ascending, read without invalidating. *)
let resident_dirty_lines h ~page =
  let levels = [ Hierarchy.l1 h; Hierarchy.l2 h; Hierarchy.llc h ] in
  List.init Kona_util.Units.lines_per_page (fun i -> (page * Kona_util.Units.page_size) + (i * 64))
  |> List.filter (fun addr -> List.exists (fun c -> Cache.is_dirty c ~addr) levels)

let test_hierarchy_resident_dirty () =
  let h = Hierarchy.create ~config:tiny_config () in
  ignore (Hierarchy.access_line h ~addr:8192 ~write:true);
  Alcotest.(check (list int)) "resident dirty" [ 8192 ]
    (resident_dirty_lines h ~page:2);
  Alcotest.(check (list int)) "still resident (no invalidate)" [ 8192 ]
    (resident_dirty_lines h ~page:2)

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
                  let expected = resident_dirty_lines h ~page in
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
          Cache.access c ~addr ~write = model_hit)
        ops)

(* The two answers of a [Cache] call that carry more than a bool: an
   access says whether it hit and, on a miss that evicted, the victim's
   block address and dirty bit; a flush says whether the block was absent
   ([None]) or its dirty bit. *)
let observe_access c ~addr ~write =
  let hit = Cache.access c ~addr ~write in
  (hit, if Cache.victim c < 0 then None else Some (Cache.victim c, Cache.victim_dirty c))

let observe_flush c ~addr =
  match Cache.flush_block c ~addr with
  | Cache.Absent -> None
  | Cache.Clean -> Some false
  | Cache.Dirty -> Some true

type cache_op =
  | Access of int * bool
  | Flush_block of int
  | Set_dirty of int
  | Probe of int
  | Is_dirty of int

(* A cache of 1, 3 or 4 sets of 1 to 4 ways, with 1 B blocks (the VM
   TLB's: a block number is a page number), 64 B or 4 KiB blocks, and ops
   over three times as many blocks as it holds. *)
let arb_cache_case =
  let open QCheck.Gen in
  let case =
    oneofl [ 1; 3; 4 ] >>= fun nsets ->
    int_range 1 4 >>= fun assoc ->
    oneofl [ 1; 64; 4096 ] >>= fun block ->
    let addr = int_bound ((3 * nsets * assoc * block) - 1) in
    let op =
      frequency
        [
          (6, map2 (fun a w -> Access (a, w)) addr bool);
          (1, map (fun a -> Flush_block a) addr);
          (1, map (fun a -> Set_dirty a) addr);
          (1, map (fun a -> Probe a) addr);
          (1, map (fun a -> Is_dirty a) addr);
        ]
    in
    map (fun ops -> ((nsets, assoc, block), ops)) (list_size (1 -- 200) op)
  in
  let print ((nsets, assoc, block), ops) =
    let op = function
      | Access (a, w) -> Printf.sprintf "%c%d" (if w then 'W' else 'R') a
      | Flush_block a -> Printf.sprintf "F%d" a
      | Set_dirty a -> Printf.sprintf "D%d" a
      | Probe a -> Printf.sprintf "P%d" a
      | Is_dirty a -> Printf.sprintf "I%d" a
    in
    Printf.sprintf "%d sets x %d ways x %d B: %s" nsets assoc block
      (String.concat " " (List.map op ops))
  in
  QCheck.make ~print
    ~shrink:(fun (config, ops) yield ->
      QCheck.Shrink.list ops (fun ops -> yield (config, ops)))
    case

(* The reference model: each set an MRU-first list of (block, dirty), at
   most [assoc] long.  Every outcome, every victim and the statistics must
   agree after each op, and so must the resident set, compared as a set
   since [iter_resident]'s order is unspecified. *)
let prop_cache_matches_set_lru_model =
  QCheck.Test.make ~name:"cache == per-set MRU lists" ~count:300 arb_cache_case
    (fun ((nsets, assoc, block), ops) ->
      let c = Cache.create ~name:"model" ~size:(nsets * assoc * block) ~assoc ~block in
      let sets = Array.make nsets [] in
      let expected =
        ref
          {
            Cache.reads = 0;
            writes = 0;
            read_misses = 0;
            write_misses = 0;
            evictions = 0;
            dirty_evictions = 0;
          }
      in
      let locate addr =
        let b = addr / block * block in
        (b, (b / block) mod nsets)
      in
      let step = function
        | Access (addr, write) ->
            let b, s = locate addr in
            let e = !expected in
            let e =
              if write then { e with writes = e.writes + 1 } else { e with reads = e.reads + 1 }
            in
            let want =
              match List.assoc_opt b sets.(s) with
              | Some dirty ->
                  sets.(s) <- (b, dirty || write) :: List.remove_assoc b sets.(s);
                  expected := e;
                  (true, None)
              | None ->
                  let e =
                    if write then { e with write_misses = e.write_misses + 1 }
                    else { e with read_misses = e.read_misses + 1 }
                  in
                  let kept, victim =
                    if List.length sets.(s) < assoc then (sets.(s), None)
                    else
                      ( List.filteri (fun i _ -> i < assoc - 1) sets.(s),
                        Some (List.nth sets.(s) (assoc - 1)) )
                  in
                  sets.(s) <- (b, write) :: kept;
                  expected :=
                    (match victim with
                    | None -> e
                    | Some (_, dirty) ->
                        {
                          e with
                          evictions = e.evictions + 1;
                          dirty_evictions = (e.dirty_evictions + if dirty then 1 else 0);
                        });
                  (false, victim)
            in
            observe_access c ~addr ~write = want
        | Flush_block addr ->
            let b, s = locate addr in
            let want = List.assoc_opt b sets.(s) in
            sets.(s) <- List.remove_assoc b sets.(s);
            observe_flush c ~addr = want
        | Set_dirty addr ->
            let b, s = locate addr in
            let resident = List.mem_assoc b sets.(s) in
            if resident then
              sets.(s) <- List.map (fun (b', d) -> (b', d || b' = b)) sets.(s);
            Cache.set_dirty c ~addr = resident
        | Probe addr ->
            let b, s = locate addr in
            Cache.probe c ~addr = List.mem_assoc b sets.(s)
        | Is_dirty addr ->
            let b, s = locate addr in
            Cache.is_dirty c ~addr = (List.assoc_opt b sets.(s) = Some true)
      in
      let resident () =
        let acc = ref [] in
        Cache.iter_resident c (fun ~block_addr ~dirty -> acc := (block_addr, dirty) :: !acc);
        List.sort compare !acc
      in
      List.for_all
        (fun op ->
          step op
          && Cache.stats c = !expected
          && resident () = List.sort compare (List.concat (Array.to_list sets)))
        ops)

let qsuite name props =(name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

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
        [
          prop_cache_capacity;
          prop_cache_hit_after_access;
          prop_cache_matches_lru_model;
          prop_cache_matches_set_lru_model;
        ];
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
