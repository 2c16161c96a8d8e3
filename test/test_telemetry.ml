(* Tests for kona_telemetry: registry semantics, tracer ring behavior,
   snapshot diff/merge, and exporter output validity. *)

open Kona_telemetry
module Histogram = Kona_util.Histogram

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_handles () =
  let reg = Registry.create () in
  let c = Registry.counter reg "a.count" in
  let g = Registry.gauge reg "a.level" in
  Registry.Counter.incr c;
  Registry.Counter.add c 4;
  Registry.Gauge.set g 7;
  Registry.Gauge.add g (-2);
  check_int "counter" 5 (Registry.Counter.value c);
  check_int "gauge" 5 (Registry.Gauge.value g);
  let snap = Registry.snapshot reg in
  Alcotest.(check (option int)) "snapshot counter" (Some 5)
    (Snapshot.counter_value snap "a.count");
  Alcotest.(check (option int)) "snapshot gauge" (Some 5)
    (Snapshot.counter_value snap "a.level")

let test_registry_collision () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x.y" : Registry.Counter.t);
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Registry: duplicate metric \"x.y\"") (fun () ->
      ignore (Registry.counter reg "x.y" : Registry.Counter.t));
  (* A different metric kind under the same name is also a collision. *)
  Alcotest.check_raises "cross-kind duplicate rejected"
    (Invalid_argument "Registry: duplicate metric \"x.y\"") (fun () ->
      ignore (Registry.gauge reg "x.y" : Registry.Gauge.t));
  (* Same base name with distinct labels is a distinct metric. *)
  ignore (Registry.counter reg ~labels:[ ("k", "v") ] "x.y" : Registry.Counter.t);
  Alcotest.check_raises "label duplicate rejected"
    (Invalid_argument "Registry: duplicate metric \"x.y{k=v}\"") (fun () ->
      ignore (Registry.counter reg ~labels:[ ("k", "v") ] "x.y" : Registry.Counter.t));
  check_int "two metrics" 2 (Registry.size reg)

let test_registry_invalid_name () =
  let reg = Registry.create () in
  Alcotest.check_raises "empty name"
    (Invalid_argument "Registry: invalid metric name \"\"") (fun () ->
      ignore (Registry.counter reg "" : Registry.Counter.t));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Registry: invalid metric name \"a b\"") (fun () ->
      ignore (Registry.counter reg "a b" : Registry.Counter.t))

let test_registry_labels_sorted () =
  let reg = Registry.create () in
  ignore
    (Registry.counter reg ~labels:[ ("z", "1"); ("a", "2") ] "m" : Registry.Counter.t);
  let snap = Registry.snapshot reg in
  match snap with
  | [ (name, _) ] -> check_string "labels sorted by key" "m{a=2,z=1}" name
  | _ -> Alcotest.fail "expected exactly one metric"

let test_registry_pull () =
  let reg = Registry.create () in
  let v = ref 10 in
  Registry.counter_fn reg "pull.count" (fun () -> !v);
  Registry.gauge_fn reg "pull.level" (fun () -> 2 * !v);
  (* Pull closures are read at snapshot time, not registration time. *)
  v := 42;
  let snap = Registry.snapshot reg in
  Alcotest.(check (option int)) "counter_fn" (Some 42)
    (Snapshot.counter_value snap "pull.count");
  Alcotest.(check (option int)) "gauge_fn" (Some 84)
    (Snapshot.counter_value snap "pull.level")

let test_registry_read () =
  let reg = Registry.create () in
  let v = ref 3 in
  Registry.counter_fn reg ~labels:[ ("qp", "fetch") ] "qp.posts" (fun () -> !v);
  Registry.Gauge.set (Registry.gauge reg "level") 7;
  let h = Registry.histogram reg "lat_ns" in
  Histogram.add h 100;
  v := 5;
  let read name = Registry.read reg name in
  check_bool "labelled counter by full name" true
    (read "qp.posts{qp=fetch}" = Some (Snapshot.Counter 5));
  check_bool "gauge" true (read "level" = Some (Snapshot.Gauge 7));
  check_bool "base name of a labelled metric is not a metric" true
    (read "qp.posts" = None);
  check_bool "unknown name" true (read "no.such" = None);
  (match read "lat_ns" with
  | Some (Snapshot.Hist copy) ->
      Histogram.add h 200;
      check_int "histogram read is a copy" 1 (Histogram.count copy)
  | _ -> Alcotest.fail "expected a histogram");
  (* A scoped view reads relative to its prefix, like it registers. *)
  let tenant = Registry.scoped reg ~prefix:"tenant.0." in
  Registry.counter_fn tenant "hits" (fun () -> 11);
  check_bool "scoped read" true
    (Registry.read tenant "hits" = Some (Snapshot.Counter 11));
  check_bool "full name from the root" true
    (read "tenant.0.hits" = Some (Snapshot.Counter 11));
  check_bool "scope hides names outside it" true
    (Registry.read tenant "level" = None)

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_tracer_wraps_keeping_newest () =
  let tr = Tracer.create ~capacity:8 () in
  for i = 0 to 19 do
    Tracer.instant tr ~args:[ ("i", i) ] "tick"
  done;
  check_int "length = capacity" 8 (Tracer.length tr);
  check_int "offered" 20 (Tracer.offered tr);
  check_int "accepted" 20 (Tracer.accepted tr);
  check_int "overwritten" 12 (Tracer.overwritten tr);
  let seqs = List.map (fun e -> e.Tracer.seq) (Tracer.events tr) in
  Alcotest.(check (list int)) "newest events retained, in order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ] seqs

let test_tracer_sampling () =
  let tr = Tracer.create ~capacity:64 ~sample:3 () in
  for _ = 1 to 10 do
    Tracer.instant tr "hot"
  done;
  check_int "offered" 10 (Tracer.offered tr);
  check_int "accepted every 3rd" 3 (Tracer.accepted tr);
  check_int "ring holds accepted" 3 (Tracer.length tr)

let test_tracer_clock_stamping () =
  let tr = Tracer.create () in
  Tracer.instant tr "before-clock";
  Tracer.set_clock tr (fun () -> (111, 222));
  Tracer.span tr ~dur_ns:5 "after-clock";
  match Tracer.events tr with
  | [ e0; e1 ] ->
      check_int "default app stamp" 0 e0.Tracer.app_ns;
      check_int "installed app stamp" 111 e1.Tracer.app_ns;
      check_int "installed bg stamp" 222 e1.Tracer.bg_ns;
      check_bool "span kind" true
        (match e1.Tracer.kind with Tracer.Span { dur_ns } -> dur_ns = 5 | _ -> false)
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)

let test_tracer_jsonl () =
  let tr = Tracer.create () in
  Tracer.instant tr ~args:[ ("x", 1) ] "a";
  Tracer.span tr ~dur_ns:9 "b";
  let path = Filename.temp_file "kona_trace" ".jsonl" in
  let n = Tracer.write_jsonl ~path tr in
  check_int "events written" 2 n;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  check_int "two lines" 2 (List.length !lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) ->
          check_bool "has name" true (List.mem_assoc "name" fields)
      | Ok _ -> Alcotest.fail "trace line is not an object"
      | Error e -> Alcotest.failf "trace line does not parse: %s" e)
    !lines

(* ------------------------------------------------------------------ *)
(* Snapshot diff/merge *)

let test_snapshot_diff_roundtrip () =
  let reg = Registry.create () in
  let c = Registry.counter reg "work.done" in
  let g = Registry.gauge reg "depth" in
  let h = Registry.histogram reg "lat" in
  Registry.Counter.add c 10;
  Registry.Gauge.set g 3;
  Histogram.add h 100;
  let before = Registry.snapshot reg in
  Registry.Counter.add c 7;
  Registry.Gauge.set g 9;
  Histogram.add h 200;
  Histogram.add h 300;
  let after = Registry.snapshot reg in
  let d = Snapshot.diff ~before ~after in
  Alcotest.(check (option int)) "counter delta" (Some 7)
    (Snapshot.counter_value d "work.done");
  Alcotest.(check (option int)) "gauge reports after level" (Some 9)
    (Snapshot.counter_value d "depth");
  (match Snapshot.find d "lat" with
  | Some (Snapshot.Hist dh) -> check_int "hist delta count" 2 (Histogram.count dh)
  | _ -> Alcotest.fail "lat missing from diff");
  (* diff then merge with before reconstructs after for counters/hists *)
  let back = Snapshot.merge before d in
  Alcotest.(check (option int)) "merge undoes diff" (Some 17)
    (Snapshot.counter_value back "work.done");
  match Snapshot.find back "lat" with
  | Some (Snapshot.Hist bh) -> check_int "hist count restored" 3 (Histogram.count bh)
  | _ -> Alcotest.fail "lat missing from merge"

let test_snapshot_immutable () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "lat" in
  Histogram.add h 5;
  let snap = Registry.snapshot reg in
  Histogram.add h 6;
  match Snapshot.find snap "lat" with
  | Some (Snapshot.Hist sh) ->
      check_int "snapshot unaffected by later adds" 1 (Histogram.count sh)
  | _ -> Alcotest.fail "lat missing"

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_export_json_valid () =
  let reg = Registry.create () in
  let c = Registry.counter reg "n" in
  Registry.Counter.add c 3;
  let h = Registry.histogram reg "lat_ns" in
  List.iter (Histogram.add h) [ 10; 20; 40_000 ];
  let s = Registry.summary reg "sz" in
  Kona_util.Stats.add_int s 12;
  let snap = Registry.snapshot reg in
  let doc = Snapshot.document ~meta:[ ("system", Json.String "test") ] snap in
  let text = Json.to_string doc in
  match Json.of_string text with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok parsed ->
      (match Json.member "schema" parsed with
      | Some (Json.String s) -> check_string "schema tag" "kona.telemetry.v1" s
      | _ -> Alcotest.fail "schema missing");
      (match Json.member "system" parsed with
      | Some (Json.String s) -> check_string "meta passthrough" "test" s
      | _ -> Alcotest.fail "meta missing");
      let metrics =
        match Json.member "metrics" parsed with
        | Some m -> Option.get (Json.to_list_opt m)
        | None -> Alcotest.fail "metrics missing"
      in
      check_int "three metrics" 3 (List.length metrics);
      let find name =
        List.find
          (fun m ->
            match Json.member "name" m with
            | Some (Json.String n) -> n = name
            | _ -> false)
          metrics
      in
      (match Json.member "value" (find "n") with
      | Some (Json.Int 3) -> ()
      | _ -> Alcotest.fail "counter value wrong");
      match Json.member "count" (find "lat_ns") with
      | Some (Json.Int 3) -> ()
      | _ -> Alcotest.fail "histogram count wrong"

let test_export_table () =
  let reg = Registry.create () in
  Registry.counter_fn reg "zeta" (fun () -> 1);
  Registry.counter_fn reg "alpha" (fun () -> 2);
  let out = Format.asprintf "%a" Snapshot.pp_table (Registry.snapshot reg) in
  let find sub =
    let n = String.length out and m = String.length sub in
    let rec go i =
      if i + m > n then Alcotest.failf "%S not in table output" sub
      else if String.sub out i m = sub then i
      else go (i + 1)
    in
    go 0
  in
  check_bool "sorted by name" true (find "alpha" < find "zeta")

let test_hub_roundtrip () =
  let hub = Hub.create ~trace_capacity:16 () in
  let c = Registry.counter (Hub.registry hub) "events" in
  Registry.Counter.add c 2;
  Tracer.instant (Hub.tracer hub) "e";
  let path = Filename.temp_file "kona_metrics" ".json" in
  Hub.write_metrics_json ~path hub;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  match Json.of_string (String.trim text) with
  | Ok doc ->
      check_bool "metrics present" true (Json.member "metrics" doc <> None)
  | Error e -> Alcotest.failf "hub export does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Json parser edge cases *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("o", Json.Obj [ ("k", Json.Int 0) ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed -> (
      (match Json.member "s" parsed with
      | Some (Json.String s) -> check_string "escaped string" "a\"b\\c\nd" s
      | _ -> Alcotest.fail "string field");
      (match Json.member "nan" parsed with
      | Some Json.Null -> () (* NaN exports as null *)
      | _ -> Alcotest.fail "nan must export as null");
      match Json.member "i" parsed with
      | Some (Json.Int i) -> check_int "int field" (-42) i
      | _ -> Alcotest.fail "int field")

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "{}x"; "\"unterminated" ]

let () =
  Alcotest.run "kona_telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "handles" `Quick test_registry_handles;
          Alcotest.test_case "collision" `Quick test_registry_collision;
          Alcotest.test_case "invalid names" `Quick test_registry_invalid_name;
          Alcotest.test_case "label order" `Quick test_registry_labels_sorted;
          Alcotest.test_case "pull closures" `Quick test_registry_pull;
          Alcotest.test_case "read by full name" `Quick test_registry_read;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring wraps keeping newest" `Quick
            test_tracer_wraps_keeping_newest;
          Alcotest.test_case "sampling" `Quick test_tracer_sampling;
          Alcotest.test_case "clock stamping" `Quick test_tracer_clock_stamping;
          Alcotest.test_case "jsonl export" `Quick test_tracer_jsonl;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "diff/merge round-trip" `Quick test_snapshot_diff_roundtrip;
          Alcotest.test_case "immutability" `Quick test_snapshot_immutable;
        ] );
      ( "export",
        [
          Alcotest.test_case "json document valid" `Quick test_export_json_valid;
          Alcotest.test_case "table sorted" `Quick test_export_table;
          Alcotest.test_case "hub write/parse" `Quick test_hub_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
    ]
