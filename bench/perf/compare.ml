(* perf.exe compare PARENT.json CHANGE.json...: one row per workload and
   end-to-end metric, judged by the rules the benchmark is defined with —
   medians and quartiles of each side, the fraction of (parent, change)
   pairs the change wins, and the metric's bound (the one BENCHMARK.json
   lists).  Several CHANGE files pool their reps.  When every file ran the
   same seed, the modeled metrics are judged against
   [Metrics.same_seed_bound] instead: for one seed they repeat exactly.  A
   differing sim_digest means the change altered simulated behaviour, not
   only its speed. *)

module Json = Kona_telemetry.Json

let fail fmt = Printf.ksprintf failwith fmt

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> fail "compare: %s" msg
  | text -> (
      match Json.of_string (String.trim text) with
      | Ok doc -> doc
      | Error msg -> fail "compare: %s: %s" path msg)

let member k j =
  match Json.member k j with Some v -> v | None -> fail "compare: missing %S" k

let list j =
  match Json.to_list_opt j with Some l -> l | None -> fail "compare: not a list"

let float_of = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "compare: not a number"

let string_of j =
  match Json.to_string_opt j with Some s -> s | None -> fail "compare: not a string"

(* workload -> (sim_digest, metric -> per-rep values) *)
let values doc =
  List.map
    (fun w ->
      ( string_of (member "name" w),
        string_of (member "sim_digest" w),
        match member "end_to_end" w with
        | Json.Obj metrics ->
            List.map
              (fun (name, m) -> (name, List.map float_of (list (member "values" m))))
              metrics
        | _ -> fail "compare: end_to_end is not an object" ))
    (list (member "workloads" doc))

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let judge ~better ~bound parent change =
  let p = Summary.of_list parent and c = Summary.of_list change in
  let beats x y = match better with Metrics.Higher -> x > y | Metrics.Lower -> x < y in
  let pairs = List.length parent * List.length change in
  let wins =
    List.fold_left
      (fun a pv -> a + List.length (List.filter (fun cv -> beats cv pv) change))
      0 parent
  in
  let win_frac = if pairs = 0 then 0. else float_of_int wins /. float_of_int pairs in
  let pm = p.Summary.median and cm = c.Summary.median in
  let worse_by =
    let d = match better with Metrics.Higher -> pm -. cm | Metrics.Lower -> cm -. pm in
    if pm = 0. then if d > 0. then infinity else 0. else d /. Float.abs pm
  in
  let spread = Float.max (Summary.spread p) (Summary.spread c) in
  let v =
    if spread > bound && wins < pairs then Unresolved
    else if
      win_frac >= 0.9 && beats cm pm
      && Float.abs (cm -. pm) > p.Summary.q3 -. p.Summary.q1
    then Improved
    else if worse_by > bound then Regressed
    else Unchanged
  in
  (p, c, win_frac, v)

let seed doc =
  match member "seed" doc with Json.Int s -> s | _ -> fail "compare: seed is not an integer"

let main parent_path change_paths =
  let parent_doc = load parent_path in
  let change_docs = List.map load change_paths in
  let same_seed = List.for_all (fun d -> seed d = seed parent_doc) change_docs in
  let parent = values parent_doc in
  let changes = List.map values change_docs in
  let regressed = ref false in
  Printf.printf "%-16s %-20s %14s %14s %14s %14s %5s %7s  %s\n" "workload" "metric"
    "parent" "parent IQR" "change" "change IQR" "win" "bound" "verdict";
  List.iter
    (fun (w, digest, metrics) ->
      let theirs = List.filter_map (List.find_opt (fun (w', _, _) -> w' = w)) changes in
      List.iter
        (fun (name, pv) ->
          let cv =
            List.concat_map
              (fun (_, _, ms) -> Option.value (List.assoc_opt name ms) ~default:[])
              theirs
          in
          match Metrics.find_end_to_end name with
          | Some m when cv <> [] && pv <> [] ->
              let bound =
                if m.Metrics.modeled && same_seed then Metrics.same_seed_bound
                else m.Metrics.bound
              in
              let p, c, win, v = judge ~better:m.Metrics.better ~bound pv cv in
              if v = Regressed then regressed := true;
              Printf.printf
                "%-16s %-20s %14.6g %14.6g %14.6g %14.6g %5.2f %6.1f%%  %s\n" w name
                p.Summary.median
                (p.Summary.q3 -. p.Summary.q1)
                c.Summary.median
                (c.Summary.q3 -. c.Summary.q1)
                win (100. *. bound) (verdict_name v)
          | _ -> ())
        metrics;
      List.iter
        (fun (_, d, _) ->
          if d <> digest then
            Printf.printf
              "%-16s sim_digest differs: %s -> %s (simulated behaviour changed)\n" w
              digest d)
        theirs)
    parent;
  if !regressed then 1 else 0
