(* Unit and property tests for Kona_util. *)

open Kona_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_addr () =
  check_int "line_of_addr 0" 0 (Units.line_of_addr 0);
  check_int "line_of_addr 63" 0 (Units.line_of_addr 63);
  check_int "line_of_addr 64" 1 (Units.line_of_addr 64);
  check_int "page_of_addr 4095" 0 (Units.page_of_addr 4095);
  check_int "page_of_addr 4096" 1 (Units.page_of_addr 4096);
  check_int "line_in_page 4095" 63 (Units.line_in_page 4095);
  check_int "line_in_page 4096" 0 (Units.line_in_page 4096);
  check_int "lines_per_page" 64 Units.lines_per_page

let test_units_align () =
  check_int "align_down" 4096 (Units.align_down 5000 ~alignment:4096);
  check_int "align_up" 8192 (Units.align_up 5000 ~alignment:4096);
  check_int "align_up exact" 4096 (Units.align_up 4096 ~alignment:4096);
  check_bool "pow2 64" true (Units.is_power_of_two 64);
  check_bool "pow2 63" false (Units.is_power_of_two 63);
  check_bool "pow2 0" false (Units.is_power_of_two 0);
  check_int "log2 1" 0 (Units.log2 1);
  check_int "log2 4096" 12 (Units.log2 4096)

let test_units_pp () =
  let s pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "bytes" "4KiB" (s Units.pp_bytes 4096);
  Alcotest.(check string) "bytes scaled" "1.5KiB" (s Units.pp_bytes 1536);
  Alcotest.(check string) "ns" "250ns" (s Units.pp_ns 250);
  Alcotest.(check string) "us" "3us" (s Units.pp_ns 3_000);
  Alcotest.(check string) "ms" "1.2ms" (s Units.pp_ns 1_200_000)

let test_units_time () =
  check_int "us" 3_000 (Units.us 3);
  check_int "ms" 2_000_000 (Units.ms 2)

(* ------------------------------------------------------------------ *)
(* Clause *)

let test_clause_lex () =
  let c = Clause.of_string "drain@5ms:id=1,,cap=2" in
  Alcotest.(check string) "kind" "drain" c.Clause.kind;
  check_bool "trigger" true (c.Clause.at_ns = Some 5_000_000);
  check_bool "params in order" true (c.Clause.params = [ ("id", "1"); ("cap", "2") ]);
  Alcotest.(check (list string))
    "split" [ "a"; "b:x=1" ] (Clause.split " a ;; b:x=1 ;");
  check_bool "| list" true
    (Clause.list ~key:"n" (Clause.nonneg ~key:"n") "0||2" = [ 0; 2 ]);
  let rejects f = match f () with _ -> false | exception Clause.Bad _ -> true in
  check_bool "parameter without =" true (rejects (fun () -> Clause.of_string "a:b"));
  check_bool "empty list" true
    (rejects (fun () -> Clause.list ~key:"n" (Clause.int ~key:"n") "|"));
  check_bool "missing trigger" true
    (rejects (fun () -> Clause.trigger (Clause.of_string "drain:id=1")))

(* A key given twice is an error naming the key and the clause kind, not a
   silent first-wins: every grammar lexes through [Clause.of_string]. *)
let test_clause_repeated_key () =
  let message s =
    match Clause.of_string s with
    | _ -> Alcotest.failf "%S was accepted" s
    | exception Clause.Bad msg -> msg
  in
  Alcotest.(check string)
    "setup" "repeated parameter fmem for setup"
    (message "setup:tenants=1,cap=33554432,fmem=64,fmem=2048");
  Alcotest.(check string)
    "probabilistic fault" "repeated parameter p for bit-flip"
    (message "bit-flip:p=0.1,p=0.9");
  Alcotest.(check string)
    "timed op" "repeated parameter id for drain" (message "drain@5ms:id=1,cap=2,id=1");
  check_bool "distinct keys accepted" true
    ((Clause.of_string "setup:fmem=64,tenants=2").Clause.params
    = [ ("fmem", "64"); ("tenants", "2") ])

let test_clause_duration () =
  check_int "bare ns" 7 (Clause.duration "7");
  check_int "us" 200_000 (Clause.duration "200us");
  check_int "ms" 2_000_000 (Clause.duration "2ms");
  check_int "s" 1_000_000_000 (Clause.duration "1s");
  Alcotest.(check string) "zero renders" "0ns" (Clause.duration_to_string 0);
  Alcotest.(check string) "largest unit" "1500us" (Clause.duration_to_string 1_500_000);
  check_int "max_int ns" max_int (Clause.duration (string_of_int max_int));
  let rejects s = match Clause.duration s with _ -> false | exception Clause.Bad _ -> true in
  check_bool "largest us accepted" false (rejects (Printf.sprintf "%dus" (max_int / 1_000)));
  check_bool "one us more rejected" true
    (rejects (Printf.sprintf "%dus" ((max_int / 1_000) + 1)));
  check_bool "5000000000s rejected" true (rejects "5000000000s");
  check_bool "negative rejected" true (rejects "-1ms");
  check_bool "unit alone rejected" true (rejects "ms")

(* Weighted towards what breaks a unit-suffix printer: multiples of each
   unit and their neighbours, and the top of the range. *)
let duration_gen =
  let open QCheck.Gen in
  let unit = oneofl [ 1_000; 1_000_000; 1_000_000_000 ] in
  let near n = map (fun d -> max 0 (n + d)) (int_range (-2) 2) in
  frequency
    [
      (2, int_bound 10_000);
      (3, unit >>= fun u -> int_bound 1_000_000 >>= fun k -> near (k * u));
      (2, map (fun d -> max_int - d) (int_bound 2));
      (2, unit >>= fun u -> map (fun d -> (max_int / u * u) - d) (int_bound 2));
      (1, int_range 0 max_int);
    ]

let prop_clause_duration_roundtrip =
  QCheck.Test.make ~name:"duration round-trips through its rendering" ~count:500
    (QCheck.make ~print:string_of_int duration_gen)
    (fun n -> Clause.duration (Clause.duration_to_string n) = n)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42 in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int a max_int) in
  let ys = List.init 32 (fun _ -> Rng.int b max_int) in
  check_bool "split streams differ" false (xs = ys)

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_bool "int in bounds" true (v >= 0 && v < 17);
    let f = Rng.float r 3.0 in
    check_bool "float in bounds" true (f >= 0. && f < 3.0);
    let z = Rng.zipf r ~n:100 ~theta:0.9 in
    check_bool "zipf in bounds" true (z >= 0 && z < 100)
  done

let test_rng_zipf_skew () =
  (* With high skew, low indices must dominate. *)
  let r = Rng.create ~seed:9 in
  let hits = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let z = Rng.zipf r ~n:100 ~theta:0.99 in
    hits.(z) <- hits.(z) + 1
  done;
  check_bool "index 0 most popular" true (hits.(0) > hits.(50));
  check_bool "head heavier than tail" true
    (hits.(0) + hits.(1) + hits.(2) > hits.(97) + hits.(98) + hits.(99))

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock () =
  let c = Clock.create () in
  check_int "starts at 0" 0 (Clock.now c);
  Clock.advance c 150;
  check_int "advance" 150 (Clock.now c);
  Clock.advance_to c 100;
  check_int "advance_to backwards is no-op" 150 (Clock.now c);
  Clock.advance_to c 500;
  check_int "advance_to forward" 500 (Clock.now c)

(* ------------------------------------------------------------------ *)
(* Bitmap *)

let test_bitmap_basic () =
  let b = Bitmap.create 130 in
  check_int "fresh empty" 0 (Bitmap.count b);
  Bitmap.set b 0;
  Bitmap.set b 61;
  Bitmap.set b 62;
  Bitmap.set b 129;
  check_int "count" 4 (Bitmap.count b);
  check_bool "get 62 (word boundary)" true (Bitmap.get b 62);
  check_bool "get 63" false (Bitmap.get b 63);
  Bitmap.clear_all b;
  check_int "clear_all" 0 (Bitmap.count b)

let test_bitmap_bounds () =
  let b = Bitmap.create 10 in
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Bitmap: index 10 out of bounds [0,10)") (fun () ->
      Bitmap.set b 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitmap: index -1 out of bounds [0,10)") (fun () ->
      ignore (Bitmap.get b (-1)))

let test_bitmap_segments () =
  let b = Bitmap.create 64 in
  List.iter (Bitmap.set b) [ 0; 1; 2; 5; 10; 11; 63 ];
  Alcotest.(check (list (pair int int)))
    "segments" [ (0, 3); (5, 1); (10, 2); (63, 1) ] (Bitmap.segments b)

let test_bitmap_set_range () =
  let b = Bitmap.create 128 in
  Bitmap.set_range b 60 10;
  check_int "count" 10 (Bitmap.count b);
  Alcotest.(check (list (pair int int))) "one segment" [ (60, 10) ] (Bitmap.segments b)

let prop_bitmap_count =
  QCheck.Test.make ~name:"bitmap count = cardinal of index set" ~count:200
    QCheck.(small_list (int_bound 199))
    (fun idxs ->
      let b = Bitmap.create 200 in
      List.iter (Bitmap.set b) idxs;
      Bitmap.count b = List.length (List.sort_uniq compare idxs))

let prop_bitmap_segments_cover =
  QCheck.Test.make ~name:"bitmap segments partition the set bits" ~count:200
    QCheck.(small_list (int_bound 199))
    (fun idxs ->
      let b = Bitmap.create 200 in
      List.iter (Bitmap.set b) idxs;
      let from_segs =
        Bitmap.segments b
        |> List.concat_map (fun (s, l) -> List.init l (fun i -> s + i))
      in
      from_segs = List.sort_uniq compare idxs)

let prop_bitmap_iter_sorted =
  QCheck.Test.make ~name:"bitmap iter_set visits in increasing order" ~count:200
    QCheck.(small_list (int_bound 199))
    (fun idxs ->
      let b = Bitmap.create 200 in
      List.iter (Bitmap.set b) idxs;
      let visited = ref [] in
      Bitmap.iter_set b (fun i -> visited := i :: !visited);
      List.rev !visited = List.sort_uniq compare idxs)

let prop_int_masks =
  QCheck.Test.make ~name:"int masks: popcount and lowest_bit" ~count:200
    QCheck.(small_list (int_bound 62))
    (fun idxs ->
      let idxs = List.sort_uniq compare idxs in
      let mask = List.fold_left (fun m i -> m lor (1 lsl i)) 0 idxs in
      Bitmap.popcount mask = List.length idxs
      &&
      match idxs with
      | [] -> (
          match Bitmap.lowest_bit 0 with
          | _ -> false
          | exception Invalid_argument _ -> true)
      | lowest :: _ -> Bitmap.lowest_bit mask = lowest)

(* ------------------------------------------------------------------ *)
(* Ring_buffer *)

let ring_contents r =
  let seen = ref [] in
  Ring_buffer.iter r (fun x -> seen := x :: !seen);
  List.rev !seen

let test_ring_fifo () =
  let r = Ring_buffer.create ~capacity:3 in
  List.iter
    (fun x -> Alcotest.(check (option int)) "room" None (Ring_buffer.force_push r x))
    [ 1; 2; 3 ];
  check_int "full" 3 (Ring_buffer.length r);
  Alcotest.(check (option int)) "full displaces the oldest" (Some 1)
    (Ring_buffer.force_push r 4);
  check_int "still full" 3 (Ring_buffer.length r);
  Alcotest.(check (list int)) "oldest first" [ 2; 3; 4 ] (ring_contents r)

let test_ring_iter_after_wrap () =
  let r = Ring_buffer.create ~capacity:4 in
  List.iter (fun x -> ignore (Ring_buffer.force_push r x : int option)) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list int)) "iter order" [ 3; 4; 5; 6 ] (ring_contents r);
  Alcotest.(check (list int)) "iter does not consume" [ 3; 4; 5; 6 ] (ring_contents r)

let prop_ring_fifo_order =
  QCheck.Test.make ~name:"ring buffer preserves FIFO order" ~count:200
    QCheck.(pair small_nat (small_list small_int))
    (fun (room, xs) ->
      (* a ring keeps the newest [capacity] pushes, oldest first *)
      let capacity = room + 1 in
      let r = Ring_buffer.create ~capacity in
      List.iter (fun x -> ignore (Ring_buffer.force_push r x : int option)) xs;
      let dropped = max 0 (List.length xs - capacity) in
      ring_contents r = List.filteri (fun i _ -> i >= dropped) xs)

(* ------------------------------------------------------------------ *)
(* Cdf *)

let test_cdf_basic () =
  let c = Cdf.create () in
  List.iter (Cdf.add c) [ 1; 1; 2; 4 ];
  check_int "count" 4 (Cdf.count c);
  Alcotest.(check (float 1e-9)) "at 0" 0.0 (Cdf.at c 0);
  Alcotest.(check (float 1e-9)) "at 1" 0.5 (Cdf.at c 1);
  Alcotest.(check (float 1e-9)) "at 3" 0.75 (Cdf.at c 3);
  Alcotest.(check (float 1e-9)) "at 4" 1.0 (Cdf.at c 4);
  check_int "median" 1 (Cdf.quantile c 0.5);
  check_int "p100" 4 (Cdf.quantile c 1.0);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Cdf.mean c)

let test_cdf_series () =
  let c = Cdf.create () in
  List.iter (Cdf.add c) [ 2; 2; 2 ];
  Cdf.add c 0;
  let probs = List.init 4 (Cdf.at c) in
  Alcotest.(check (list (float 1e-9))) "series" [ 0.25; 0.25; 1.0; 1.0 ] probs

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf series is monotone and ends at 1" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 30))
    (fun xs ->
      let c = Cdf.create () in
      List.iter (Cdf.add c) xs;
      let probs = List.init 31 (Cdf.at c) in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono probs && abs_float (List.nth probs 30 -. 1.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 100; 100; 5000 ];
  check_int "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 1040.2 (Histogram.mean h);
  check_bool "p50 covers 100" true (Histogram.percentile h 50. >= 100);
  check_bool "p99 covers 5000" true (Histogram.percentile h 99. >= 5000);
  check_bool "p50 below max" true (Histogram.percentile h 50. < 5000)

let test_histogram_buckets () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 3; 3; 70 ];
  (match Histogram.buckets h with
  | (0, 1) :: rest ->
      check_bool "bucket with 2 threes" true (List.exists (fun (_, c) -> c = 2) rest)
  | _ -> Alcotest.fail "expected zero bucket first");
  Alcotest.check_raises "negative rejected" (Invalid_argument "Histogram.add: negative sample")
    (fun () -> Histogram.add h (-1))

let prop_histogram_percentile_bounds =
  QCheck.Test.make ~name:"percentile upper-bounds at least p% of samples" ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (int_bound 1_000_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let p90 = Histogram.percentile h 90. in
      let below = List.length (List.filter (fun s -> s <= p90) samples) in
      10 * below >= 9 * List.length samples)

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_util"
    [
      ( "units",
        [
          Alcotest.test_case "address math" `Quick test_units_addr;
          Alcotest.test_case "alignment" `Quick test_units_align;
          Alcotest.test_case "time units" `Quick test_units_time;
          Alcotest.test_case "pretty printers" `Quick test_units_pp;
        ] );
      ( "clause",
        [
          Alcotest.test_case "lexing" `Quick test_clause_lex;
          Alcotest.test_case "repeated parameter" `Quick test_clause_repeated_key;
          Alcotest.test_case "durations" `Quick test_clause_duration;
        ] );
      qsuite "clause-props" [ prop_clause_duration_roundtrip ];
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ("clock", [ Alcotest.test_case "advance" `Quick test_clock ]);
      ( "bitmap",
        [
          Alcotest.test_case "basic" `Quick test_bitmap_basic;
          Alcotest.test_case "bounds" `Quick test_bitmap_bounds;
          Alcotest.test_case "segments" `Quick test_bitmap_segments;
          Alcotest.test_case "set_range" `Quick test_bitmap_set_range;
        ] );
      qsuite "bitmap-props"
        [
          prop_bitmap_count;
          prop_bitmap_segments_cover;
          prop_bitmap_iter_sorted;
          prop_int_masks;
        ];
      ( "ring_buffer",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "iter after wrap" `Quick test_ring_iter_after_wrap;
        ] );
      qsuite "ring-props" [ prop_ring_fifo_order ];
      ( "cdf",
        [
          Alcotest.test_case "basic" `Quick test_cdf_basic;
          Alcotest.test_case "series" `Quick test_cdf_series;
        ] );
      qsuite "cdf-props" [ prop_cdf_monotone ];
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
        ] );
      qsuite "histogram-props" [ prop_histogram_percentile_bounds ];
    ]
