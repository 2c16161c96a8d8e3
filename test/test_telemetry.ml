(* Tests for kona_telemetry: registry semantics, tracer ring behavior,
   snapshot immutability, and exporter output validity. *)

open Kona_telemetry
module Histogram = Kona_util.Histogram

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Registry *)

(* The registry holds a handle on each component tally — a closure or a
   histogram — and every registration reports its own kind. *)
let test_registry_handles () =
  let reg = Registry.create () in
  let count = ref 0 and level = ref 0 in
  let h = Histogram.create () in
  Registry.counter_fn reg "a.count" (fun () -> !count);
  Registry.gauge_fn reg "a.level" (fun () -> !level);
  Registry.histogram_ref reg "a.lat" h;
  count := 5;
  level := 7;
  Histogram.add h 100;
  let snap = Registry.snapshot reg in
  check_bool "counter kind" true
    (Snapshot.find snap "a.count" = Some (Snapshot.Counter 5));
  check_bool "gauge kind" true
    (Snapshot.find snap "a.level" = Some (Snapshot.Gauge 7));
  match Snapshot.find snap "a.lat" with
  | Some (Snapshot.Hist sh) -> check_int "histogram kind" 1 (Histogram.count sh)
  | _ -> Alcotest.fail "expected a histogram"

let zero () = 0

let test_registry_collision () =
  let reg = Registry.create () in
  Registry.counter_fn reg "x.y" zero;
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Registry: duplicate metric \"x.y\"") (fun () ->
      Registry.counter_fn reg "x.y" zero);
  (* A different metric kind under the same name is also a collision. *)
  Alcotest.check_raises "cross-kind duplicate rejected"
    (Invalid_argument "Registry: duplicate metric \"x.y\"") (fun () ->
      Registry.gauge_fn reg "x.y" zero);
  (* Same base name with distinct labels is a distinct metric. *)
  Registry.counter_fn reg ~labels:[ ("k", "v") ] "x.y" zero;
  Alcotest.check_raises "label duplicate rejected"
    (Invalid_argument "Registry: duplicate metric \"x.y{k=v}\"") (fun () ->
      Registry.counter_fn reg ~labels:[ ("k", "v") ] "x.y" zero);
  check_int "two metrics" 2 (Registry.size reg)

let test_registry_invalid_name () =
  let reg = Registry.create () in
  Alcotest.check_raises "empty name"
    (Invalid_argument "Registry: invalid metric name \"\"") (fun () ->
      Registry.counter_fn reg "" zero);
  Alcotest.check_raises "bad char"
    (Invalid_argument "Registry: invalid metric name \"a b\"") (fun () ->
      Registry.counter_fn reg "a b" zero)

let test_registry_labels_sorted () =
  let reg = Registry.create () in
  Registry.counter_fn reg ~labels:[ ("z", "1"); ("a", "2") ] "m" zero;
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
  Registry.gauge_fn reg "level" (fun () -> 7);
  let h = Histogram.create () in
  Registry.histogram_ref reg "lat_ns" h;
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
(* Snapshot *)

let test_snapshot_immutable () =
  let reg = Registry.create () in
  let h = Histogram.create () in
  Registry.histogram_ref reg "lat" h;
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
  Registry.counter_fn reg "n" (fun () -> 3);
  Registry.gauge_fn reg "level" (fun () -> 12);
  let h = Histogram.create () in
  Registry.histogram_ref reg "lat_ns" h;
  List.iter (Histogram.add h) [ 10; 20; 40_000 ];
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
      (match Json.member "type" (find "level") with
      | Some (Json.String "gauge") -> ()
      | _ -> Alcotest.fail "gauge type wrong");
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
  Registry.counter_fn (Hub.registry hub) "events" (fun () -> 2);
  Tracer.instant (Hub.tracer hub) "e";
  let text = Json.to_string (Snapshot.document (Hub.snapshot hub)) in
  match Json.of_string text with
  | Ok doc -> (
      match Option.bind (Json.member "metrics" doc) Json.to_list_opt with
      | Some [ m ] ->
          check_bool "counter exported" true
            (Json.member "value" m = Some (Json.Int 2))
      | _ -> Alcotest.fail "expected one metric")
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
      ("snapshot", [ Alcotest.test_case "immutability" `Quick test_snapshot_immutable ]);
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
