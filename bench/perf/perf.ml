(* Host-speed and modeled-latency benchmark.

     dune exec bench/perf/perf.exe -- --seed 7 --reps 5 [--trace]
     dune exec bench/perf/perf.exe -- --workload kv-zipf-hit --seconds 15
     dune exec bench/perf/perf.exe -- compare PARENT.json CHANGE.json...

   Each (workload, rep) runs in a fresh child process of this executable,
   one child at a time, reps in rep-major order so machine drift spreads
   across workloads.  The parent derives every metric from the children's
   raw results, prints them by name with their units, writes
   BENCH_perf.json (and BENCH_perf_trace.json with --trace), and ends its
   output with one JSON line: correctness, checks attempted and failed,
   and — when one workload was run — the metrics BENCHMARK.json names. *)

module Json = Kona_telemetry.Json

let usage =
  "perf.exe [--workload NAME]... [--seed N] [--reps N | --seconds S] [--trace \
   [0|1]] [--quick] [--out PATH] [--benchmark PATH]\n\
   perf.exe compare PARENT.json CHANGE.json...\n\
   workloads: "
  ^ String.concat ", " (List.map (fun c -> c.Case.name) Case.all)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Child side: run one rep, print "@ key value" lines. *)

let child = function
  | [ name; seed; scale; traced; events ] ->
      let c =
        match Case.find name with Some c -> c | None -> die "unknown workload %s" name
      in
      let scale = if scale = "smoke" then Kona_workloads.Workloads.Smoke else Full in
      let traced = traced = "1" in
      let kv = Case.run_child c ~scale ~seed:(int_of_string seed) ~traced in
      List.iter (fun (k, v) -> Printf.printf "@ %s %s\n" k v) kv;
      if traced then
        Out_channel.with_open_bin events (fun oc ->
            let pid = Option.get (List.find_index (( == ) c) Case.all) + 1 in
            Span.write_events oc ~pid ~tid:0 ~label:name);
      exit 0
  | _ -> die "bad child arguments"

(* ------------------------------------------------------------------ *)
(* Parent side. *)

type result = { kv : Metrics.kv; wall_ns : int }

let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Span.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: "child" :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let wall_ns = Span.now_ns () - t0 in
  match status with
  | Unix.WEXITED 0 ->
      let kv =
        String.split_on_char '\n' text
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' line with
               | [ "@"; k; v ] -> Some (k, v)
               | _ -> None)
      in
      Some { kv; wall_ns }
  | _ ->
      prerr_endline ("perf: child failed: " ^ String.concat " " args);
      None

type run = {
  case : Case.t;
  mutable reps : result list;  (** newest first *)
  mutable crashed : int;
  mutable traced : result option;
}

(* Correctness of one workload's set: every child finished, every oracle
   check passed, and every rep (the traced one too) agrees with rep 1 on
   the digest and the modeled results.  Returns (attempted, failed). *)
let checks r =
  let all = List.rev r.reps @ Option.to_list r.traced in
  let int x k = int_of_string (Metrics.str x.kv k) in
  let attempted = List.fold_left (fun a x -> a + int x "checks") r.crashed all in
  let failed = List.fold_left (fun a x -> a + int x "failures") r.crashed all in
  match all with
  | [] -> (attempted, failed)
  | first :: rest ->
      let same x k = Metrics.str x.kv k = Metrics.str first.kv k in
      let disagree =
        List.length
          (List.filter (fun x -> not (List.for_all (same x) Metrics.modeled_keys)) rest)
      in
      (attempted + List.length rest, failed + disagree)

let better_name = function Metrics.Lower -> "lower" | Metrics.Higher -> "higher"

(* BENCHMARK.json: the metrics, with their units, the one-workload summary
   line carries.  Its end-to-end directions and bounds must be the ones
   defined here, which [compare] judges with. *)
let benchmark_names path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match Json.of_string (String.trim text) with
      | Error msg -> die "%s: %s" path msg
      | Ok doc ->
          let entries key =
            match Option.bind (Json.member key doc) Json.to_list_opt with
            | None -> die "%s: no %s list" path key
            | Some l ->
                List.map
                  (fun m ->
                    let field k = Option.bind (Json.member k m) Json.to_string_opt in
                    match (field "name", field "unit") with
                    | Some n, Some u -> ((n, u), m)
                    | _ -> die "%s: a metric without a name or unit" path)
                  l
          in
          let e2e = entries "end_to_end" in
          List.iter
            (fun ((n, _), entry) ->
              match Metrics.find_end_to_end n with
              | None -> ()
              | Some m ->
                  let field k = Option.value (Json.member k entry) ~default:Json.Null in
                  let bound =
                    match field "bound" with
                    | Json.Float f -> f
                    | Json.Int i -> float_of_int i
                    | _ -> nan
                  in
                  if
                    field "better" <> Json.String (better_name m.Metrics.better)
                    || bound <> m.Metrics.bound
                  then die "%s: %s disagrees with its definition in metrics.ml" path n)
            e2e;
          Some (List.map fst e2e, List.map fst (entries "per_layer")))

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

(* One workload: print its metrics and return them with its JSON record. *)
let report ~seed r =
  let attempted, failed = checks r in
  let name = r.case.Case.name in
  let digest = match r.reps with x :: _ -> Metrics.str x.kv "digest" | [] -> "none" in
  Printf.printf
    "\n== %s (seed %d, %d rep(s)%s) ==\n  sim_digest %s   checks %d, failed %d\n"
    name seed (List.length r.reps)
    (if r.crashed > 0 then Printf.sprintf ", %d crashed" r.crashed else "")
    digest attempted failed;
  let reference_ms =
    List.rev_map (fun x -> Metrics.num x.kv "reference_ns" /. 1e6) r.reps
  in
  if reference_ms <> [] then
    Printf.printf "  reference kernel %.4g ms (median of reps; host times are at %.4g ms)\n"
      (Summary.median reference_ms)
      (Case.reference_nominal_ns /. 1e6);
  let e2e =
    (if r.reps = [] then []
     else
       List.map
         (fun m -> (m, List.rev_map (fun x -> m.Metrics.per_rep x.kv) r.reps))
         Metrics.end_to_end)
    @ [
        ( Metrics.error_rate,
          [
            (if attempted = 0 then 1.
             else float_of_int failed /. float_of_int attempted);
          ]
        );
      ]
  in
  let e2e =
    List.map
      (fun (m, values) ->
        let s = Summary.of_list values in
        Printf.printf "  %-34s %16.8g %-12s q1 %.8g  q3 %.8g  n %d\n" m.Metrics.name
          s.Summary.median m.Metrics.unit s.Summary.q1 s.Summary.q3 s.Summary.n;
        (m, s, values))
      e2e
  in
  let layers =
    match r.traced with
    | None -> []
    | Some t ->
        let ls =
          Metrics.per_layer ~kind:r.case.Case.kind
            ~reps:(List.map (fun x -> x.kv) r.reps)
            ~traced:t.kv
        in
        Printf.printf "  -- per layer (traced pass) --\n";
        List.iter
          (fun l ->
            Printf.printf "  %-34s %16.8g %s%s\n" l.Metrics.l_name l.Metrics.l_value
              l.Metrics.l_unit
              (if l.Metrics.l_unresolved then
                 "  (unresolved: negative or within the rounds' quartile spread)"
               else ""))
          ls;
        ls
  in
  let doc =
    Json.Obj
      [
        ("name", Json.String name);
        ("why", Json.String r.case.Case.why);
        ("sim_digest", Json.String digest);
        ("reps", Json.Int (List.length r.reps));
        ("checks", Json.Int attempted);
        ("failed", Json.Int failed);
        ("reference_ms", Json.List (List.map json_num reference_ms));
        ( "end_to_end",
          Json.Obj
            (List.map
               (fun (m, s, values) ->
                 ( m.Metrics.name,
                   Json.Obj
                     [
                       ("unit", Json.String m.Metrics.unit);
                       ("better", Json.String (better_name m.Metrics.better));
                       ("bound", Json.Float m.Metrics.bound);
                       ("median", json_num s.Summary.median);
                       ("q1", json_num s.Summary.q1);
                       ("q3", json_num s.Summary.q3);
                       ("n", Json.Int s.Summary.n);
                       ("values", Json.List (List.map json_num values));
                     ] ))
               e2e) );
        ( "per_layer",
          Json.Obj
            (List.map
               (fun l ->
                 ( l.Metrics.l_name,
                   Json.Obj
                     [
                       ("unit", Json.String l.Metrics.l_unit);
                       ("value", json_num l.Metrics.l_value);
                       ("unresolved", Json.Bool l.Metrics.l_unresolved);
                     ] ))
               layers) );
      ]
  in
  let e2e =
    List.map (fun (m, s, _) -> (m.Metrics.name, m.Metrics.unit, s.Summary.median)) e2e
  in
  let layers =
    List.map (fun l -> (l.Metrics.l_name, l.Metrics.l_unit, l.Metrics.l_value)) layers
  in
  ((attempted, failed), (name, e2e, layers), doc)

let write_results ~path ~seed ~scale docs =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "kona.perf.v1");
                ("seed", Json.Int seed);
                ("scale", Json.String scale);
                ( "machine",
                  Json.Obj
                    [
                      ("nproc", Json.Int (Domain.recommended_domain_count ()));
                      ("ocaml", Json.String Sys.ocaml_version);
                    ] );
                ("workloads", Json.List docs);
              ]));
      output_char oc '\n')

(* The traced children's event fragments, spliced into one Chrome
   trace-event file that Perfetto opens. *)
let write_trace parts =
  Out_channel.with_open_bin "BENCH_perf_trace.json" (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i p ->
          if i > 0 then output_string oc ",\n";
          output_string oc (In_channel.with_open_bin p In_channel.input_all);
          Sys.remove p)
        parts;
      output_string oc "\n]}\n")

let main () =
  let workloads = ref [] in
  let seed = ref 7 and reps = ref 5 and seconds = ref 0. and trace = ref false in
  let quick = ref false and out = ref "BENCH_perf.json" in
  let benchmark = ref "BENCHMARK.json" in
  (* [--trace] alone enables the traced pass; [--trace 0|1] is explicit. *)
  let rec norm = function
    | "--trace" :: (("0" | "1") as v) :: rest -> "--trace" :: v :: norm rest
    | "--trace" :: rest -> "--trace" :: "1" :: norm rest
    | x :: rest -> x :: norm rest
    | [] -> []
  in
  let specs =
    Arg.align
      [
        ( "--workload",
          Arg.String (fun w -> workloads := !workloads @ [ w ]),
          "NAME run only this workload (repeatable)" );
        ( "--seed",
          Arg.Set_int seed,
          "N workload seed; rack tenants get N and N+1 (default 7)" );
        ("--reps", Arg.Set_int reps, "N untraced reps per workload (default 5)");
        ( "--seconds",
          Arg.Set_float seconds,
          "S run reps of each workload until S seconds are spent (overrides --reps)" );
        ( "--trace",
          Arg.Int (fun v -> trace := v = 1),
          "[0|1] add the traced pass: spans, layer stacks, per-layer metrics" );
        ( "--quick",
          Arg.Set quick,
          " smoke scale, 1 rep, 1 round of each layer stack (3 otherwise)" );
        ("--out", Arg.Set_string out, "PATH results file (default BENCH_perf.json)");
        ( "--benchmark",
          Arg.Set_string benchmark,
          "PATH metric list for the summary line (default BENCHMARK.json)" );
      ]
  in
  (try
     Arg.parse_argv
       (Array.of_list (Sys.argv.(0) :: norm (List.tl (Array.to_list Sys.argv))))
       specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let cases =
    match !workloads with
    | [] -> Case.all
    | names ->
        List.map
          (fun n ->
            match Case.find n with
            | Some c -> c
            | None -> die "unknown workload %s\n%s" n usage)
          names
  in
  if !quick then begin
    reps := 1;
    seconds := 0.
  end;
  if !reps < 1 then die "--reps must be positive";
  let scale = if !quick then "smoke" else "full" in
  let names = benchmark_names !benchmark in
  let runs =
    List.map (fun case -> { case; reps = []; crashed = 0; traced = None }) cases
  in
  let events_path r = Printf.sprintf "BENCH_perf_trace.%s.json" r.case.Case.name in
  let spawn_rep r ~traced =
    spawn
      [
        r.case.Case.name;
        string_of_int !seed;
        scale;
        (if traced then "1" else "0");
        events_path r;
      ]
  in
  let spent r = List.fold_left (fun a x -> a + x.wall_ns) 0 r.reps in
  let wants_more r =
    let n = List.length r.reps + r.crashed in
    if !seconds > 0. then float_of_int (spent r) /. 1e9 < !seconds && n < 1000
    else n < !reps
  in
  (* rep-major: one rep of every unfinished workload per round *)
  let rec loop () =
    match List.filter wants_more runs with
    | [] -> ()
    | pending ->
        List.iter
          (fun r ->
            match spawn_rep r ~traced:false with
            | Some x -> r.reps <- x :: r.reps
            | None -> r.crashed <- r.crashed + 1)
          pending;
        loop ()
  in
  loop ();
  if !trace then
    List.iter
      (fun r ->
        match spawn_rep r ~traced:true with
        | Some x -> r.traced <- Some x
        | None -> r.crashed <- r.crashed + 1)
      runs;
  let reports = List.map (report ~seed:!seed) runs in
  write_results ~path:!out ~seed:!seed ~scale (List.map (fun (_, _, d) -> d) reports);
  Printf.printf "\nwrote %s\n" !out;
  if !trace then begin
    write_trace (List.filter Sys.file_exists (List.map events_path runs));
    print_endline "wrote BENCH_perf_trace.json"
  end;
  let attempted = List.fold_left (fun a ((x, _), _, _) -> a + x) 0 reports in
  let failed = List.fold_left (fun a ((_, f), _, _) -> a + f) 0 reports in
  let measured = List.map (fun (_, m, _) -> m) reports in
  (* Every metric BENCHMARK.json names must be emitted, in its unit, for
     every workload. *)
  let missing =
    match names with
    | None -> []
    | Some (e2e_names, layer_names) ->
        List.concat_map
          (fun (w, e2e, layers) ->
            let have = List.map (fun (n, u, _) -> (n, u)) (e2e @ layers) in
            List.filter_map
              (fun (n, u) ->
                if List.mem (n, u) have then None
                else Some (Printf.sprintf "%s: %s (%s)" w n u))
              (e2e_names @ if !trace then layer_names else []))
          measured
  in
  List.iter (fun m -> prerr_endline ("perf: metric not emitted: " ^ m)) missing;
  let correct = failed = 0 && missing = [] && List.for_all (fun r -> r.reps <> []) runs in
  let metrics =
    match measured with
    | [ (_, e2e, layers) ] -> (
        let chosen = if !trace then layers else e2e in
        match names with
        | None -> chosen
        | Some (e2e_names, layer_names) ->
            let keep = List.map fst (if !trace then layer_names else e2e_names) in
            List.filter (fun (n, _, _) -> List.mem n keep) chosen)
    | _ -> []
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
          metrics));
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child rest
  | [ "compare" ] | [ "compare"; _ ] ->
      die "usage: perf.exe compare PARENT.json CHANGE.json..."
  | "compare" :: parent :: changes -> (
      match Compare.main parent changes with
      | code -> exit code
      | exception Failure msg -> die "%s" msg)
  | _ -> main ()
