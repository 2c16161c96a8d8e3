(* Metrics derived from the children's raw "key value" results: the
   end-to-end metrics per untraced rep, and the per-layer metrics from the
   traced pass.  Everything is computed here from integer nanoseconds and
   counts, so the printed numbers carry all their digits. *)

type kv = (string * string) list
type better = Lower | Higher

type e2e = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** share of the parent's median a change may worsen it by; it must
          cover the metric's spread over ten different seeds *)
  modeled : bool;  (** repeats exactly for one seed *)
  per_rep : kv -> float;
}

let str (kv : kv) k =
  match List.assoc_opt k kv with
  | Some v -> v
  | None -> failwith ("perf: child result lacks " ^ k)

let num kv k = float_of_string (str kv k)
let has kv k = List.mem_assoc k kv
let ratio a b = if b = 0. then 0. else a /. b

(* A host time in seconds at the reference machine speed: scaled by the
   nominal reference time over the one the same child measured. *)
let host_s kv k =
  num kv k /. 1e9 *. Case.reference_nominal_ns /. num kv "reference_ns"

let sim_ops kv = num kv "accesses" /. host_s kv "run_ns"

(* A set reports the median of its reps for every metric.  The host-time
   bounds are the largest allowed: even scaled, host speed spread by up to
   12% over ten runs on the shared 2-vCPU machine the benchmark was sized
   on.  The modeled bounds cover the spread from seed to seed (up to 3.8%
   for the rack's AMAT); for one seed those metrics repeat exactly and
   [same_seed_bound] applies. *)
let end_to_end =
  [
    {
      name = "sim_ops_per_s";
      unit = "accesses/s";
      better = Higher;
      bound = 0.25;
      modeled = false;
      per_rep = sim_ops;
    };
    {
      name = "setup_s";
      unit = "s";
      better = Lower;
      bound = 0.25;
      modeled = false;
      per_rep = (fun kv -> host_s kv "setup_ns");
    };
    {
      name = "peak_rss_mb";
      unit = "MiB";
      better = Lower;
      bound = 0.05;
      modeled = false;
      per_rep = (fun kv -> num kv "rss_kb" /. 1024.);
    };
    {
      name = "virtual_ms";
      unit = "ms";
      better = Lower;
      bound = 0.12;
      modeled = true;
      per_rep = (fun kv -> num kv "virtual_ns" /. 1e6);
    };
    {
      name = "amat_ns";
      unit = "ns";
      better = Lower;
      bound = 0.15;
      modeled = true;
      per_rep = (fun kv -> num kv "app_ns" /. num kv "accesses");
    };
    {
      name = "remote_bytes_per_op";
      unit = "B/access";
      better = Lower;
      bound = 0.10;
      modeled = true;
      per_rep = (fun kv -> num kv "c.nic.wire_bytes" /. num kv "accesses");
    };
  ]

(* When parent and change ran the same seed, a modeled metric compares
   exactly: a change of more than this share is a change in simulated
   behaviour, not noise. *)
let same_seed_bound = 0.005

(* Failed checks over checks, for the whole set of reps (a per-rep median
   would hide one bad rep): oracle failures, workload self-checks, reps
   disagreeing with rep 1, crashed children.  Any increase regresses. *)
let error_rate =
  {
    name = "error_rate";
    unit = "fraction";
    better = Lower;
    bound = 0.;
    modeled = false;
    per_rep = (fun _ -> nan);
  }

let find_end_to_end name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ [ error_rate ])

(* Modeled results and the digest: a rep that disagrees with rep 1 on any
   of these is a determinism failure. *)
let modeled_keys = [ "digest"; "accesses"; "virtual_ns"; "app_ns"; "c.nic.wire_bytes" ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced pass. *)

type layer = {
  l_name : string;
  l_unit : string;
  l_value : float;
  l_unresolved : bool;
      (** a stack difference that is negative (a layer costs no less than
          nothing) or within the quartile spread of the two stacks' rounds *)
}

let stack_rounds kv name =
  let rec go r acc =
    let k = Printf.sprintf "%s.%d" name r in
    if has kv k then go (r + 1) (num kv k :: acc) else List.rev acc
  in
  go 1 []

(* A stack's replay time: its fastest round.  Every stack runs the same
   fixed number of interleaved rounds, and a burst of machine load only
   ever slows a round down. *)
let stack_ns kv name = List.fold_left Float.min infinity (stack_rounds kv name)

(* [upper] minus [lower], in ns per access, with the resolution test and
   the total difference in ns. *)
let stack_diff kv ~upper ~lower =
  let ops = num kv "stack_accesses" in
  let spread name =
    let s = Summary.of_list (stack_rounds kv name) in
    s.Summary.q3 -. s.Summary.q1
  in
  let d = stack_ns kv upper -. stack_ns kv lower in
  (d /. ops, d < 0. || d <= Float.max (spread upper) (spread lower), d)

let per_layer ~(kind : Case.kind) ~(reps : kv list) ~(traced : kv) =
  let out = ref [] in
  let add ?(unresolved = false) name unit value =
    out :=
      { l_name = name; l_unit = unit; l_value = value; l_unresolved = unresolved } :: !out
  in
  let c k = num traced ("c." ^ k) in
  let diff name ~upper ~lower =
    let v, unresolved, _ = stack_diff traced ~upper ~lower in
    add ~unresolved name "ns/access" v
  in
  let is_rack = kind = Case.Rack_heat in
  let integrity =
    match kind with Case.Single s -> s.Case.integrity | Rack_heat -> false
  in
  add "workloads.record_s" "s" (num traced "record_ns" /. 1e9);
  add "replay.null_ns_per_op" "ns/access"
    (stack_ns traced "stack.null" /. num traced "stack_accesses");
  diff "cachesim.host_ns_per_op" ~upper:"stack.cachesim" ~lower:"stack.null";
  add "cachesim.llc_miss_frac" "fraction"
    (ratio (c "cache.misses{level=llc}") (c "cache.accesses{level=l1}"));
  diff "runtime.self_ns_per_op" ~upper:"stack.runtime" ~lower:"stack.cachesim";
  diff "telemetry.host_ns_per_op" ~upper:"stack.runtime+hub" ~lower:"stack.runtime";
  add "runtime.sink_p50_ns" "ns" (num traced "sink_p50_ns");
  add "runtime.sink_p99_ns" "ns" (num traced "sink_p99_ns");
  add "step.p50_us" "us" (num traced "step_p50_ns" /. 1e3);
  add "step.p99_us" "us" (num traced "step_p99_ns" /. 1e3);
  add "runtime.drain_s" "s"
    (num traced (if is_rack then "stack_drain_ns" else "drain_ns") /. 1e9);
  add "oracle.check_s" "s"
    (num traced (if is_rack then "stack_oracle_ns" else "oracle_ns") /. 1e9);
  add "fmem.hit_ratio" "fraction"
    (ratio (c "fmem.hits") (c "fmem.hits" +. c "fmem.misses"));
  add "fetch.pages" "count" (c "fetch.pages");
  add "evict.clean_frac" "fraction" (ratio (c "evict.clean_pages") (c "evict.pages"));
  add "cllog.lines" "count" (c "cllog.lines");
  add "cllog.lines_per_flush" "lines" (ratio (c "cllog.lines") (c "cllog.flushes"));
  add "rdma.window_stalls" "count"
    (c "qp.window_stalls{qp=evict}" +. c "qp.window_stalls{qp=fetch}");
  add "rdma.doorbell_batches" "count" (c "cllog.doorbell_batches");
  add "rdma.fetch_wire_bytes" "B" (c "qp.wire_bytes{qp=fetch}");
  add "scrub.sweeps" "count" (c "scrub.sweeps");
  add "scrub.pages" "count" (c "scrub.pages");
  (* Integrity-stack costs, as host ns per access and as a share of the
     full stack's replay time; zero where the stack is off. *)
  let full = if integrity then stack_ns traced "stack.+scrub" else 0. in
  List.iter
    (fun (name, upper, lower) ->
      let v, unresolved, d =
        if integrity then stack_diff traced ~upper ~lower else (0., false, 0.)
      in
      if integrity then add ~unresolved (name ^ "_ns_per_op") "ns/access" v;
      add ~unresolved (name ^ "_pct") "%" (100. *. ratio d full))
    [
      ("replication.host", "stack.+replicas", "stack.runtime+hub");
      ("verify_lease.host", "stack.+verify+lease", "stack.+replicas");
      ("integrity.scrub_host", "stack.+scrub", "stack.+verify+lease");
    ];
  (* Rack layers: the untraced step loop against the tenants' traces
     replayed standalone, both timed over the same rounds. *)
  let _, self_unresolved, self =
    if is_rack then stack_diff traced ~upper:"stack.rack" ~lower:"stack.runtime+hub"
    else (0., false, 0.)
  in
  if is_rack then begin
    add "rack.start_s" "s" (num traced "setup_ns" /. 1e9);
    add ~unresolved:self_unresolved "rack.self_s" "s" (self /. 1e9);
    add "rack.finish_s" "s" (num traced "drain_ns" /. 1e9);
    add "wfq.delay_ms" "ms" (num traced "rack.delay_ns" /. 1e6);
    add "placement.migrator_delay_ms" "ms" (num traced "rack.migrator_delay_ns" /. 1e6)
  end;
  add ~unresolved:self_unresolved "rack.self_pct" "%"
    (if is_rack then 100. *. ratio self (stack_ns traced "stack.rack") else 0.);
  let rack k = if is_rack then num traced k else 0. in
  add "wfq.saturated_admit_frac" "fraction"
    (ratio (rack "rack.saturated_admits") (rack "rack.total_admits"));
  add "wfq.achieved_share_ratio" "ratio" (rack "rack.achieved_share_ratio");
  add "placement.remote_hit_pml" "permille" (rack "rack.remote_hit_pml");
  add "placement.hot_hit_pml" "permille" (rack "rack.hot_hit_pml");
  add "placement.migrations" "count" (rack "rack.migrations");
  add "coherence.snoops" "count" (rack "rack.snoops");
  add "coherence.invalidations" "count" (rack "rack.invalidations");
  (* OCaml runtime: allocation per access over the untraced timed runs. *)
  let med f = Summary.median (List.map f reps) in
  add "gc.minor_words_per_op" "words/access"
    (med (fun kv -> num kv "gc_minor_words" /. num kv "accesses"));
  add "gc.major_words_per_op" "words/access"
    (med (fun kv -> num kv "gc_major_words" /. num kv "accesses"));
  add "gc.major_collections" "count" (med (fun kv -> num kv "gc_major_collections"));
  let untraced = med sim_ops in
  add "trace.overhead_pct" "%" (100. *. (untraced -. sim_ops traced) /. untraced);
  List.rev !out
