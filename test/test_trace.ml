(* Tests for Kona_trace: access events, windowing, amplification, footprint. *)

open Kona_trace
module Cdf = Kona_util.Cdf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Access *)

let test_access_lines () =
  let a = Access.read ~addr:60 ~len:8 in
  let lines = ref [] in
  Access.iter_lines a (fun l -> lines := l :: !lines);
  Alcotest.(check (list int)) "spans two lines" [ 0; 1 ] (List.rev !lines);
  let b = Access.write ~addr:64 ~len:64 in
  let lines = ref [] in
  Access.iter_lines b (fun l -> lines := l :: !lines);
  Alcotest.(check (list int)) "exactly one line" [ 1 ] (List.rev !lines)

let test_access_pages () =
  let a = Access.write ~addr:4090 ~len:10 in
  let pages = ref [] in
  Access.iter_pages a (fun p -> pages := p :: !pages);
  Alcotest.(check (list int)) "spans two pages" [ 0; 1 ] (List.rev !pages)

let prop_iter_lines_covers =
  QCheck.Test.make ~name:"iter_lines visits each line of the range once" ~count:300
    QCheck.(pair (int_bound 10_000) (int_range 1 500))
    (fun (addr, len) ->
      let a = Access.write ~addr ~len in
      let lines = ref [] in
      Access.iter_lines a (fun l -> lines := l :: !lines);
      let first = Kona_util.Units.line_of_addr addr in
      let last = Kona_util.Units.line_of_addr (Access.end_addr a - 1) in
      List.rev !lines = List.init (last - first + 1) (fun i -> first + i))

(* A sink plus a getter for how many events it absorbed. *)
let counting () =
  let n = ref 0 in
  ((fun (_ : Access.t) -> incr n), fun () -> !n)

let test_tap () =
  let n1, get1 = counting () in
  let n2, get2 = counting () in
  let sink = Access.Tap.tee [ n1; (fun e -> if Access.is_write e then n2 e) ] in
  sink (Access.read ~addr:0 ~len:8);
  sink (Access.write ~addr:8 ~len:8);
  sink (Access.write ~addr:16 ~len:8);
  check_int "tee sees all" 3 (get1 ());
  check_int "the writes sink sees writes" 2 (get2 ())

(* ------------------------------------------------------------------ *)
(* Window *)

let test_window_boundaries () =
  let boundaries = ref [] in
  let w =
    Window.create ~quantum:3 ~inner:Access.Tap.ignore ~on_boundary:(fun ~window ->
        boundaries := window :: !boundaries)
  in
  for _ = 1 to 7 do
    Window.sink w (Access.read ~addr:0 ~len:1)
  done;
  Alcotest.(check (list int)) "two full windows" [ 1; 0 ] !boundaries;
  Window.flush w;
  Alcotest.(check (list int)) "partial window flushed" [ 2; 1; 0 ] !boundaries;
  Window.flush w;
  Alcotest.(check (list int)) "empty flush is no-op" [ 2; 1; 0 ] !boundaries

(* ------------------------------------------------------------------ *)
(* Amplification *)

let page = Kona_util.Units.page_size

(* Per-window amplification at each tracking granularity: dirty-footprint
   bytes over the unique bytes written. *)
let amp granule_bytes (w : Amplification.window_stats) =
  if w.written_bytes = 0 then 0.
  else float_of_int granule_bytes /. float_of_int w.written_bytes

let amp_line w = amp w.Amplification.dirty_line_bytes w
let amp_page w = amp w.Amplification.dirty_page_bytes w
let amp_huge w = amp w.Amplification.dirty_huge_bytes w

let amp_of accesses =
  let t = Amplification.create () in
  List.iter (Amplification.sink t) accesses;
  Amplification.close_window t ~window:0;
  match Amplification.windows t with [ w ] -> w | _ -> assert false

let test_amp_single_small_write () =
  (* Write 1 KB within one page: paper's worked example gives 4x at 4KB. *)
  let w = amp_of [ Access.write ~addr:(page * 7) ~len:1024 ] in
  check_int "written" 1024 w.Amplification.written_bytes;
  Alcotest.(check (float 1e-9)) "4KB amp = 4" 4.0 (amp_page w);
  Alcotest.(check (float 1e-9)) "CL amp = 1" 1.0 (amp_line w);
  Alcotest.(check (float 1e-9)) "2MB amp" (2097152. /. 1024.) (amp_huge w)

let test_amp_dedup_within_window () =
  (* Same byte written twice counts once. *)
  let w = amp_of [ Access.write ~addr:0 ~len:64; Access.write ~addr:0 ~len:64 ] in
  check_int "written deduped" 64 w.Amplification.written_bytes;
  Alcotest.(check (float 1e-9)) "CL amp" 1.0 (amp_line w)

let test_amp_sub_line_write () =
  (* An 8-byte write dirties a whole cache-line: CL amp = 8. *)
  let w = amp_of [ Access.write ~addr:32 ~len:8 ] in
  Alcotest.(check (float 1e-9)) "CL amp" 8.0 (amp_line w);
  Alcotest.(check (float 1e-9)) "4KB amp" 512.0 (amp_page w)

let test_amp_reads_ignored () =
  let t = Amplification.create () in
  Amplification.sink t (Access.read ~addr:0 ~len:4096);
  Amplification.close_window t ~window:0;
  match Amplification.windows t with
  | [ w ] -> check_int "no dirty bytes" 0 w.Amplification.written_bytes
  | _ -> assert false

let test_amp_cross_page_write () =
  let w = amp_of [ Access.write ~addr:(page - 8) ~len:16 ] in
  check_int "written" 16 w.Amplification.written_bytes;
  Alcotest.(check (float 1e-9)) "two pages dirty" (8192. /. 16.) (amp_page w);
  Alcotest.(check (float 1e-9)) "two lines dirty" (128. /. 16.) (amp_line w)

let test_amp_aggregate_drop_last () =
  let t = Amplification.create () in
  Amplification.sink t (Access.write ~addr:0 ~len:4096);
  Amplification.close_window t ~window:0;
  Amplification.sink t (Access.write ~addr:page ~len:1);
  Amplification.close_window t ~window:1;
  let all = Amplification.aggregate t in
  let dropped = Amplification.aggregate ~drop_last:true t in
  check_int "all written" 4097 all.Amplification.total_written_bytes;
  check_int "dropped written" 4096 dropped.Amplification.total_written_bytes;
  Alcotest.(check (float 1e-9)) "dropped 4KB amp" 1.0 dropped.Amplification.agg_amp_page

let prop_amp_ordering =
  (* For any write set: amp_huge >= amp_page >= amp_line >= 1. *)
  QCheck.Test.make ~name:"amplification is monotone in granularity" ~count:200
    QCheck.(small_list (pair (int_bound 100_000) (int_range 1 300)))
    (fun writes ->
      writes = []
      ||
      let w = amp_of (List.map (fun (addr, len) -> Access.write ~addr ~len) writes) in
      let a_l = amp_line w
      and a_p = amp_page w
      and a_h = amp_huge w in
      a_l >= 1.0 && a_p >= a_l && a_h >= a_p)

let test_amp_page_redirtied_across_windows () =
  (* The same page written in two windows is marked dirty in both: tracking
     resets per window, exactly like re-arming write protection. *)
  let t = Amplification.create () in
  Amplification.sink t (Access.write ~addr:0 ~len:64);
  Amplification.close_window t ~window:0;
  Amplification.sink t (Access.write ~addr:0 ~len:64);
  Amplification.close_window t ~window:1;
  match Amplification.windows t with
  | [ w0; w1 ] ->
      check_int "w0 dirty page bytes" 4096 w0.Amplification.dirty_page_bytes;
      check_int "w1 dirty page bytes" 4096 w1.Amplification.dirty_page_bytes
  | _ -> Alcotest.fail "expected two windows"

(* ------------------------------------------------------------------ *)
(* Footprint *)

let test_footprint_lines_cdf () =
  let t = Footprint.create () in
  (* Page 0: read 3 distinct lines. Page 1: write all 64 lines. *)
  Footprint.sink t (Access.read ~addr:0 ~len:8);
  Footprint.sink t (Access.read ~addr:128 ~len:8);
  Footprint.sink t (Access.read ~addr:256 ~len:8);
  Footprint.sink t (Access.write ~addr:page ~len:page);
  Footprint.close_window t ~window:0;
  let reads = Footprint.lines_per_page_cdf t ~kind:Access.Read in
  let writes = Footprint.lines_per_page_cdf t ~kind:Access.Write in
  check_int "one read page sample" 1 (Cdf.count reads);
  check_int "read page has 3 lines" 3 (Cdf.quantile reads 0.5);
  check_int "write page has 64 lines" 64 (Cdf.quantile writes 0.5)

let test_footprint_segments () =
  let t = Footprint.create () in
  (* Lines 0,1,2 and line 10 of page 0: segments of length 3 and 1. *)
  Footprint.sink t (Access.write ~addr:0 ~len:192);
  Footprint.sink t (Access.write ~addr:640 ~len:8);
  Footprint.close_window t ~window:0;
  let segs = Footprint.segment_length_cdf t ~kind:Access.Write in
  check_int "two segments" 2 (Cdf.count segs);
  Alcotest.(check (float 1e-9)) "mean length 2" 2.0 (Cdf.mean segs)

let test_footprint_window_isolation () =
  let t = Footprint.create () in
  Footprint.sink t (Access.write ~addr:0 ~len:8);
  Footprint.close_window t ~window:0;
  Footprint.sink t (Access.write ~addr:64 ~len:8);
  Footprint.close_window t ~window:1;
  let writes = Footprint.lines_per_page_cdf t ~kind:Access.Write in
  (* Two separate (window,page) samples of 1 line each, not one of 2. *)
  check_int "two samples" 2 (Cdf.count writes);
  check_int "each 1 line" 1 (Cdf.quantile writes 1.0)

(* ------------------------------------------------------------------ *)
(* Trace_file *)

let tmp_trace () = Filename.temp_file "kona" ".trace"

let test_trace_file_roundtrip () =
  let path = tmp_trace () in
  let sink, close = Trace_file.writer ~path in
  let events =
    [ Access.read ~addr:0 ~len:8; Access.write ~addr:4096 ~len:64;
      Access.read ~addr:123456 ~len:3 ]
  in
  List.iter sink events;
  check_int "written count" 3 (close ());
  let replayed = ref [] in
  check_int "replayed count" 3 (Trace_file.iter ~path (fun e -> replayed := e :: !replayed));
  check_bool "identical stream" true (List.rev !replayed = events);
  Sys.remove path

let test_trace_file_rejects_garbage () =
  let path = tmp_trace () in
  let oc = open_out path in
  output_string oc "not a trace at all....";
  close_out oc;
  check_bool "bad magic" true
    (try
       ignore (Trace_file.iter ~path ignore : int);
       false
     with Failure _ -> true);
  Sys.remove path

let prop_trace_file_roundtrip =
  QCheck.Test.make ~name:"trace file roundtrips any access stream" ~count:50
    QCheck.(small_list (pair (int_bound 1_000_000) (pair (int_range 1 5000) bool)))
    (fun specs ->
      let events =
        List.map
          (fun (addr, (len, w)) ->
            if w then Access.write ~addr ~len else Access.read ~addr ~len)
          specs
      in
      let path = tmp_trace () in
      let sink, close = Trace_file.writer ~path in
      List.iter sink events;
      ignore (close () : int);
      let replayed = ref [] in
      ignore (Trace_file.iter ~path (fun e -> replayed := e :: !replayed) : int);
      Sys.remove path;
      List.rev !replayed = events)

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_trace"
    [
      ( "access",
        [
          Alcotest.test_case "iter_lines" `Quick test_access_lines;
          Alcotest.test_case "iter_pages" `Quick test_access_pages;
          Alcotest.test_case "taps" `Quick test_tap;
        ] );
      qsuite "access-props" [ prop_iter_lines_covers ];
      ("window", [ Alcotest.test_case "boundaries" `Quick test_window_boundaries ]);
      ( "amplification",
        [
          Alcotest.test_case "paper example (1KB in a page)" `Quick
            test_amp_single_small_write;
          Alcotest.test_case "dedup within window" `Quick test_amp_dedup_within_window;
          Alcotest.test_case "sub-line write" `Quick test_amp_sub_line_write;
          Alcotest.test_case "reads ignored" `Quick test_amp_reads_ignored;
          Alcotest.test_case "cross-page write" `Quick test_amp_cross_page_write;
          Alcotest.test_case "aggregate drop_last" `Quick test_amp_aggregate_drop_last;
          Alcotest.test_case "re-dirty across windows" `Quick
            test_amp_page_redirtied_across_windows;
        ] );
      qsuite "amplification-props" [ prop_amp_ordering ];
      ( "footprint",
        [
          Alcotest.test_case "lines per page CDF" `Quick test_footprint_lines_cdf;
          Alcotest.test_case "segments" `Quick test_footprint_segments;
          Alcotest.test_case "window isolation" `Quick test_footprint_window_isolation;
        ] );
      ( "trace_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_trace_file_rejects_garbage;
        ] );
      qsuite "trace-file-props" [ prop_trace_file_roundtrip ];
    ]
