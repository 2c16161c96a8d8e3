(* The five benchmark workloads and everything one child process does with
   one of them: set up (record the access stream, build the fabric), run
   (replay through a fresh runtime, drain), check (divergence oracle,
   workload self-checks), and — in the traced pass — replay the same trace
   through growing layer stacks.

   Every workload is record-then-replay, the decoupling [Rack.start] uses:
   the workload runs once against an instrumented heap whose events are
   packed into a flat int array, so the timed run measures the simulator,
   not the workload generator.  Eviction reads the heap's bytes as of the
   end of the trace (as the rack does), so after the drain remote memory
   must equal them on every backed page. *)

open Kona_util
module Access = Kona_trace.Access
module Heap = Kona_workloads.Heap
module Workloads = Kona_workloads.Workloads
module Hierarchy = Kona_cachesim.Hierarchy
module Runtime = Kona.Runtime
module Rack_controller = Kona.Rack_controller
module Memory_node = Kona.Memory_node
module Resource_manager = Kona.Resource_manager
module Hub = Kona_telemetry.Hub
module Snapshot = Kona_telemetry.Snapshot
module Rack = Kona_rack.Rack

(* ------------------------------------------------------------------ *)
(* Packed access traces: one int per access, [addr | len | write]. *)

module Trace = struct
  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { mutable data : buf; mutable len : int }

  let len_bits = 23
  let len_mask = (1 lsl len_bits) - 1
  let alloc n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
  let create () = { data = alloc (1 lsl 20); len = 0 }
  let length t = t.len

  let add t (ev : Access.t) =
    if ev.len > len_mask then invalid_arg "Trace.add: access too long to pack";
    if t.len = Bigarray.Array1.dim t.data then begin
      let bigger = alloc (2 * t.len) in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    Bigarray.Array1.unsafe_set t.data t.len
      ((ev.addr lsl (len_bits + 1))
      lor (ev.len lsl 1)
      lor match ev.kind with Access.Write -> 1 | Access.Read -> 0);
    t.len <- t.len + 1

  (* Trim to the exact length so the growth slack is released. *)
  let freeze t =
    let exact = alloc (max 1 t.len) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.data 0 t.len)
      (Bigarray.Array1.sub exact 0 t.len);
    { data = exact; len = t.len }

  let get t i =
    let w = Bigarray.Array1.unsafe_get t.data i in
    {
      Access.addr = w lsr (len_bits + 1);
      len = (w lsr 1) land len_mask;
      kind = (if w land 1 = 1 then Access.Write else Access.Read);
    }

  let iter t (sink : Access.sink) =
    for i = 0 to t.len - 1 do
      sink (get t i)
    done
end

(* ------------------------------------------------------------------ *)
(* Workload definitions. *)

type single = {
  slug : string;  (** {!Workloads.find} name *)
  fmem_pages : int;
  integrity : bool;
      (** replicas + verified fetches + leases + scrubbing on top of the
          base configuration *)
}

type kind = Single of single | Rack_heat
type t = { name : string; why : string; kind : kind }

let all =
  [
    {
      name = "kv-zipf-hit";
      why =
        "Redis-Zipf on 1024 FMem frames: few fetches, so the per-access path \
         (cachesim, FMem lookup, sink poll) does most of the work";
      kind = Single { slug = "kv-zipf"; fmem_pages = 1024; integrity = false };
    };
    {
      name = "kv-uniform-miss";
      why =
        "Redis-Rand on 256 FMem frames: a read-dominated miss stream through \
         fetch, evict, CL-log and QP/NIC";
      kind = Single { slug = "kv-uniform"; fmem_pages = 256; integrity = false };
    };
    {
      name = "voltdb-write";
      why =
        "VoltDB on 256 FMem frames: the miss path for writes (dirty \
         tracking, line shipping, doorbell batching)";
      kind = Single { slug = "voltdb"; fmem_pages = 256; integrity = false };
    };
    {
      name = "integrity-scrub";
      why =
        "the kv-zipf-hit trace with replicas, verified fetches, leases and \
         scrubbing: the difference is the integrity stack's cost";
      kind = Single { slug = "kv-zipf"; fmem_pages = 1024; integrity = true };
    };
    {
      name = "rack-heat";
      why =
        "the canonical two-tenant heat-policy rack demo: WFQ, placement, \
         migrator, rack scheduler and rack directory work only here";
      kind = Rack_heat;
    };
  ]

let find name = List.find_opt (fun c -> c.name = name) all

let base_config s = { Runtime.default_config with Runtime.fmem_pages = s.fmem_pages }
let with_replicas c = { c with Runtime.replicas = 1 }

let with_verify_lease c =
  {
    c with
    Runtime.verify_checksums = true;
    heartbeat_ns = Some (Units.us 10);
    lease_ns = Units.us 100;
  }

(* A sweep every 2 ms of virtual time makes scrubbing the largest part of
   the replay without dwarfing it: at the fuzz grid's 200 us interval one
   replay takes minutes. *)
let with_scrub c = { c with Runtime.scrub_interval_ns = Some (Units.ms 2) }

(* Single-runtime workloads replay the first million accesses of their
   full-scale run: past the load phase into the mixed phase, and short
   enough for several reps in one 15 s set.  Smoke runs replay all. *)
let limit = function Workloads.Full -> Some 1_000_000 | Workloads.Smoke -> None

let config s =
  if s.integrity then with_scrub (with_verify_lease (with_replicas (base_config s)))
  else base_config s

(* The canonical rack demo (konactl rack --tenants 2 -w kv-zipf,kv-uniform
   --policy heat --nodes 3 --fmem-pages 64): one fast node, a +2 us slow
   tier.  It stays at smoke scale even in full runs: recording both
   tenants at full scale peaks above 3 GiB of host memory and one replay
   takes ~25 s, so a timed set would hold one rep. *)
let rack_config =
  {
    Rack.default_config with
    Rack.scale = Workloads.Smoke;
    nodes = 3;
    policy = "heat";
    fast_nodes = 1;
    slow_extra_ns = 2000;
    runtime = { Runtime.default_config with Runtime.fmem_pages = 64 };
  }

let rack_tenants seed =
  List.mapi
    (fun i slug ->
      {
        Rack.name = Printf.sprintf "t%d-%s" i slug;
        workload = slug;
        bw_share = 1;
        mem_quota = None;
        seed = seed + i;
      })
    [ "kv-zipf"; "kv-uniform" ]

(* ------------------------------------------------------------------ *)
(* One child's results: "key value" pairs, written to stdout for the
   parent.  Times are integer nanoseconds so nothing is rounded on the way. *)

let put o k v = o := (k, v) :: !o
let put_int o k v = put o k (string_of_int v)
let put_float o k v = put o k (Printf.sprintf "%.17g" v)
let now = Span.now_ns

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () - t0)

(* Machine speed.  On a shared host the simulator's speed drifts with the
   load other tenants put on the machine: by up to 44% between two sets of
   runs ten minutes apart, and in step with any other code run in the same
   minute.  Every child therefore times a fixed reference kernel before
   set-up and after the run, and host times are reported at the speed
   where the kernel takes [reference_nominal_ns] (see Metrics).  The kernel
   is a dependent chain of loads over 32 MiB, so its speed is set by the
   machine's memory system, not by the code the compiler makes. *)
let reference_nominal_ns = 150e6

let reference_ns () =
  let n = 1 lsl 22 in
  (* a full-period LCG (odd increment, multiplier 1 mod 4) visits every
     slot, in an order the prefetchers cannot follow *)
  let next = Array.init n (fun i -> ((i * 1_103_515_245) + 12_345) land (n - 1)) in
  let x = ref 0 in
  let t0 = now () in
  for _ = 1 to 1 lsl 20 do
    x := Array.unsafe_get next !x
  done;
  let ns = now () - t0 in
  ignore (Sys.opaque_identity !x);
  ns

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let counter snap name =
  match Snapshot.counter_value snap name with
  | Some v -> v
  | None -> failwith ("perf: metric missing from snapshot: " ^ name)

(* Counts the per-layer metrics are derived from, summed over every
   [prefix]ed namespace (one per rack tenant). *)
let layer_counters =
  [
    "runtime.accesses";
    "cache.accesses{level=l1}";
    "cache.misses{level=llc}";
    "fmem.hits";
    "fmem.misses";
    "fetch.pages";
    "evict.pages";
    "evict.clean_pages";
    "cllog.lines";
    "cllog.flushes";
    "cllog.doorbell_batches";
    "qp.window_stalls{qp=evict}";
    "qp.window_stalls{qp=fetch}";
    "qp.wire_bytes{qp=fetch}";
    "nic.wire_bytes";
    "scrub.sweeps";
    "scrub.pages";
  ]

let put_counters o snap prefixes =
  List.iter
    (fun name ->
      put_int o ("c." ^ name)
        (List.fold_left (fun a p -> a + counter snap (p ^ name)) 0 prefixes))
    layer_counters

let gc_delta o f =
  let before = Gc.quick_stat () in
  let v = f () in
  let after = Gc.quick_stat () in
  put_int o "gc_minor_words"
    (int_of_float (after.Gc.minor_words -. before.Gc.minor_words));
  put_int o "gc_major_words"
    (int_of_float (after.Gc.major_words -. before.Gc.major_words));
  put_int o "gc_major_collections"
    (after.Gc.major_collections - before.Gc.major_collections);
  v

(* ------------------------------------------------------------------ *)
(* Single-runtime workloads. *)

(* A recorded workload: its access trace and the application memory the
   trace leaves behind — the bytes eviction ships and the oracle compares
   remote memory with. *)
type recording = {
  trace : Trace.t;
  image : Bytes.t;
  poked : bool array;  (** pages of mmap'd input, clean by construction *)
  self_check : string option;  (** the workload's own check failure *)
}

(* Records the whole run, so the workload's self-checks run, but keeps only
   the first [limit] accesses, with the heap's bytes as of that cut. *)
let record ?(limit = max_int) ~scale ~seed slug =
  let spec = Workloads.find slug in
  let buf = Trace.create () in
  let heap = ref None and cut = ref None in
  let sink ev =
    if Trace.length buf < limit then Trace.add buf ev
    else if !cut = None then
      (* a heap access emits before it stores, so the heap holds exactly
         the effects of the first [limit] accesses *)
      cut := Some (Heap.snapshot (Option.get !heap))
  in
  let h = Heap.create ~capacity:(spec.Workloads.heap_capacity scale) ~sink () in
  heap := Some h;
  let self_check =
    match spec.Workloads.run scale ~heap:h ~seed with
    | () -> None
    | exception Failure msg -> Some msg
  in
  {
    trace = Trace.freeze buf;
    image = (match !cut with Some b -> b | None -> Heap.snapshot h);
    poked =
      Array.init (Heap.capacity h / Units.page_size) (fun page ->
          Heap.page_poked h ~page);
    self_check;
  }

(* A runtime over the fabric [konactl run] builds: one controller, two
   128 MiB nodes. *)
let runtime ?hub ~config r =
  let controller = Rack_controller.create ~slab_size:(Units.mib 1) () in
  for id = 0 to 1 do
    Rack_controller.register_node controller
      (Memory_node.create ~id ~capacity:(Units.mib 128))
  done;
  Runtime.create ~config ?hub ~controller
    ~read_local:(fun ~addr ~len -> Bytes.sub_string r.image addr len)
    ()

(* After the drain, every backed private page must hold the recording's
   bytes; unrepairable pages belong to the corruption oracles.  A degraded
   run is one more failed check.  Returns (checks, failures). *)
let oracle rt r =
  let page = Units.page_size in
  let unrepairable = Runtime.unrepairable_pages rt in
  let checks = ref 0 and failures = ref 0 in
  Resource_manager.iter_backed_pages (Runtime.resource_manager rt)
    (fun ~vpage ~node ~remote_addr ->
      let base = vpage * page in
      if
        base + page <= Bytes.length r.image
        && (not r.poked.(vpage))
        && not (List.mem vpage unrepairable)
      then begin
        incr checks;
        match
          Memory_node.peek
            (Rack_controller.node (Runtime.controller rt) ~id:node)
            ~addr:remote_addr ~len:page
        with
        | remote -> if remote <> Bytes.sub_string r.image base page then incr failures
        | exception Memory_node.Crashed _ -> incr failures
      end);
  incr checks;
  if Runtime.degraded rt <> None then incr failures;
  (!checks, !failures)

let digest_of_pairs pairs =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) pairs)))

(* Replays with every 64th [Runtime.sink] call and every 256-access slice
   timed into the span buffer (traced pass only). *)
let sample_every = 64
let slice = 256

let replay_sampled trace sink =
  let slice_start = ref (now ()) in
  for i = 0 to Trace.length trace - 1 do
    let ev = Trace.get trace i in
    if i land (sample_every - 1) = 0 then begin
      let t0 = now () in
      sink ev;
      Span.record "runtime.sink" ~start:t0 ~stop:(now ())
    end
    else sink ev;
    if (i + 1) mod slice = 0 then begin
      let t = now () in
      Span.record "step" ~start:!slice_start ~stop:t;
      slice_start := t
    end
  done

let run_single o s ~scale ~seed ~traced =
  let setup_span = Span.enter "setup" in
  let r, record_ns =
    timed (fun () ->
        Span.with_ "workloads.record" (fun () ->
            record ?limit:(limit scale) ~scale ~seed s.slug))
  in
  let trace = r.trace in
  let (rt, hub), build_ns =
    timed (fun () ->
        Span.with_ "fabric.build" (fun () ->
            let hub = Hub.create () in
            (runtime ~hub ~config:(config s) r, hub)))
  in
  Span.leave setup_span;
  (* recording garbage must not be collected on the run's clock *)
  Gc.full_major ();
  let run_span = Span.enter "run" in
  let replay_ns, drain_ns =
    gc_delta o (fun () ->
        let (), replay_ns =
          timed (fun () ->
              Span.with_ "runtime.replay" (fun () ->
                  if traced then replay_sampled trace (Runtime.sink rt)
                  else Trace.iter trace (Runtime.sink rt)))
        in
        let (), drain_ns =
          timed (fun () -> Span.with_ "runtime.drain" (fun () -> Runtime.drain rt))
        in
        (replay_ns, drain_ns))
  in
  let (checks, failures), oracle_ns =
    timed (fun () -> Span.with_ "oracle.check" (fun () -> oracle rt r))
  in
  Span.leave run_span;
  let accesses = Trace.length trace in
  let snap = Hub.snapshot hub in
  Option.iter (Printf.eprintf "perf: %s\n%!") r.self_check;
  if counter snap "runtime.accesses" <> accesses then
    failwith "perf: runtime saw a different access count than the trace";
  put_int o "setup_ns" (record_ns + build_ns);
  put_int o "record_ns" record_ns;
  put_int o "build_ns" build_ns;
  put_int o "run_ns" (replay_ns + drain_ns);
  put_int o "replay_ns" replay_ns;
  put_int o "drain_ns" drain_ns;
  put_int o "oracle_ns" oracle_ns;
  put_int o "accesses" accesses;
  put_int o "virtual_ns" (Runtime.elapsed_ns rt);
  put_int o "app_ns" (Runtime.app_ns rt);
  put_int o "checks" (checks + 1);
  put_int o "failures" (failures + if r.self_check = None then 0 else 1);
  put o "digest" (digest_of_pairs (Runtime.stats rt @ Runtime.integrity_counters rt));
  put_counters o snap [ "" ];
  r

(* ------------------------------------------------------------------ *)
(* Layer stacks: the same recordings (one, or the rack's tenants) through
   growing stacks of public functions.  Each layer's host cost is the
   difference between adjacent stacks; rounds are interleaved so machine
   drift spreads across them.  A stack is built afresh each round, untimed;
   it returns its timed part and its untimed finish. *)

type stack = string * (unit -> (unit -> unit) * (unit -> unit))

let rounds = function Workloads.Full -> 3 | Workloads.Smoke -> 1

let layer_stacks ~integrity ~config recordings : stack list =
  let over_traces build () =
    let parts = List.map (fun r -> (r.trace, build r)) recordings in
    ( (fun () -> List.iter (fun (trace, (sink, _)) -> Trace.iter trace sink) parts),
      fun () -> List.iter (fun (_, (_, finish)) -> finish ()) parts )
  in
  let runtime_stack ?hub config r =
    let rt = runtime ?hub ~config r in
    (Runtime.sink rt, fun () -> Runtime.drain rt)
  in
  let with_hub config r = runtime_stack ~hub:(Hub.create ()) config r in
  List.map
    (fun (name, build) -> (name, over_traces build))
    ([
       ("stack.null", fun _ -> (Access.Tap.ignore, ignore));
       ( "stack.cachesim",
         fun _ ->
           let h = Hierarchy.create ~config:config.Runtime.cache_config () in
           (Hierarchy.access h, ignore) );
       ("stack.runtime", runtime_stack config);
       ("stack.runtime+hub", with_hub config);
     ]
    @
    if not integrity then []
    else
      let rep = with_replicas config in
      let vl = with_verify_lease rep in
      [
        ("stack.+replicas", with_hub rep);
        ("stack.+verify+lease", with_hub vl);
        ("stack.+scrub", with_hub (with_scrub vl));
      ])

let run_stacks o ~scale ~accesses (stacks : stack list) =
  put_int o "stack_accesses" accesses;
  for round = 1 to rounds scale do
    List.iter
      (fun (name, build) ->
        let run, finish = build () in
        Gc.full_major ();
        let (), ns = timed (fun () -> Span.with_ name run) in
        finish ();
        put_int o (Printf.sprintf "%s.%d" name round) ns)
      stacks
  done

let trace_accesses recordings =
  List.fold_left (fun a r -> a + Trace.length r.trace) 0 recordings

(* ------------------------------------------------------------------ *)
(* The rack. *)

let run_rack o ~seed ~traced =
  let engine, setup_ns =
    timed (fun () ->
        Span.with_ "setup" (fun () ->
            Span.with_ "rack.start" (fun () ->
                Rack.start rack_config (rack_tenants seed))))
  in
  Gc.full_major ();
  let run_span = Span.enter "run" in
  let (steps_ns, (result, finish_ns)) =
    gc_delta o (fun () ->
        let (), steps_ns =
          timed (fun () ->
              if traced then
                while Span.with_ "rack.step" (fun () -> Rack.step engine) > 0 do
                  ()
                done
              else
                while Rack.step engine > 0 do
                  ()
                done)
        in
        let finished =
          timed (fun () -> Span.with_ "rack.finish" (fun () -> Rack.finish engine))
        in
        (steps_ns, finished))
  in
  Span.leave run_span;
  let tenants = Array.to_list result.Rack.r_tenants in
  let sum f = List.fold_left (fun a t -> a + f t) 0 tenants in
  let accesses = sum (fun t -> t.Rack.t_accesses) in
  (* checks: every backed page of every tenant, the shared segment, and
     each tenant's workload self-check (a failure raises out of start) *)
  let pages = ref 0 in
  List.iteri
    (fun i _ ->
      Resource_manager.iter_backed_pages
        (Runtime.resource_manager (Rack.runtime engine ~tenant:i))
        (fun ~vpage:_ ~node:_ ~remote_addr:_ -> incr pages))
    tenants;
  let failures =
    sum (fun t ->
        t.Rack.t_mismatches + t.Rack.t_lost_pages
        + if t.Rack.t_degraded = None then 0 else 1)
    + Rack.shared_divergence engine
  in
  put_int o "setup_ns" setup_ns;
  put_int o "run_ns" (steps_ns + finish_ns);
  put_int o "replay_ns" steps_ns;
  put_int o "drain_ns" finish_ns;
  put_int o "accesses" accesses;
  put_int o "virtual_ns" result.Rack.r_elapsed_ns;
  put_int o "app_ns" (sum (fun t -> t.Rack.t_app_ns));
  put_int o "checks" (!pages + 1 + List.length tenants);
  put_int o "failures" failures;
  put o "digest"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n" (List.map (fun t -> t.Rack.t_fingerprint) tenants))));
  put_counters o result.Rack.r_snapshot
    (List.mapi (fun i _ -> Printf.sprintf "tenant.%d." i) tenants);
  put_int o "rack.total_admits" result.Rack.r_total_admits;
  put_int o "rack.saturated_admits" result.Rack.r_saturated_admits;
  put_int o "rack.delay_ns" (sum (fun t -> t.Rack.t_delay_ns));
  (match tenants with
  | [ a; b ] when b.Rack.t_achieved_gbps > 0. ->
      put_float o "rack.achieved_share_ratio"
        (a.Rack.t_achieved_gbps /. b.Rack.t_achieved_gbps)
  | _ -> put_float o "rack.achieved_share_ratio" 0.);
  put_int o "rack.remote_hit_pml" result.Rack.r_remote_hit_pml;
  put_int o "rack.hot_hit_pml" result.Rack.r_hot_hit_pml;
  put_int o "rack.migrations" result.Rack.r_migrations;
  put_int o "rack.migrator_delay_ns" result.Rack.r_migrator_delay_ns;
  put_int o "rack.snoops" result.Rack.r_snoops;
  put_int o "rack.invalidations" result.Rack.r_invalidations_sent

(* The rack's tenant traces replayed on standalone runtimes of the same
   configuration: what the tenants cost without the rack around them.
   Beside those stacks, [stack.rack] times the rack's step loop without
   spans, so the rack's self time compares like with like. *)
let rack_stacks o ~scale ~seed =
  let recordings, record_ns =
    timed (fun () ->
        Span.with_ "workloads.record" (fun () ->
            List.map
              (fun tc ->
                record ~scale:rack_config.Rack.scale ~seed:tc.Rack.seed tc.Rack.workload)
              (rack_tenants seed)))
  in
  put_int o "record_ns" record_ns;
  let config = rack_config.Rack.runtime in
  let rack () =
    let engine = Rack.start rack_config (rack_tenants seed) in
    ( (fun () ->
        while Rack.step engine > 0 do
          ()
        done),
      fun () -> ignore (Rack.finish engine) )
  in
  Span.with_ "stacks" (fun () ->
      run_stacks o ~scale ~accesses:(trace_accesses recordings)
        (layer_stacks ~integrity:false ~config recordings @ [ ("stack.rack", rack) ]));
  Span.with_ "stack.tenants-standalone" (fun () ->
      (* sampled sinks, drain and oracle on the standalone runtimes *)
      let drain_ns = ref 0 and oracle_ns = ref 0 in
      List.iter
        (fun r ->
          let rt = runtime ~hub:(Hub.create ()) ~config r in
          Span.with_ "runtime.replay" (fun () ->
              replay_sampled r.trace (Runtime.sink rt));
          let (), d =
            timed (fun () -> Span.with_ "runtime.drain" (fun () -> Runtime.drain rt))
          in
          let _, c =
            timed (fun () -> Span.with_ "oracle.check" (fun () -> oracle rt r))
          in
          drain_ns := !drain_ns + d;
          oracle_ns := !oracle_ns + c)
        recordings;
      put_int o "stack_drain_ns" !drain_ns;
      put_int o "stack_oracle_ns" !oracle_ns)

(* ------------------------------------------------------------------ *)

(* One child: one rep of one workload, untraced (end-to-end metrics) or
   traced (spans, stacks, per-layer host costs). *)
let run_child c ~scale ~seed ~traced =
  let o = ref [] in
  Span.enabled := traced;
  let reference_before = reference_ns () in
  (* the kernel's 32 MiB go back to the system before set-up, so they
     never count in the peak RSS *)
  Gc.full_major ();
  (match c.kind with
  | Single s ->
      let r = run_single o s ~scale ~seed ~traced in
      if traced then
        Span.with_ "stacks" (fun () ->
            run_stacks o ~scale ~accesses:(trace_accesses [ r ])
              (layer_stacks ~integrity:s.integrity ~config:(base_config s) [ r ]))
  | Rack_heat ->
      run_rack o ~seed ~traced;
      if traced then rack_stacks o ~scale ~seed);
  put_int o "rss_kb" (peak_rss_kb ());
  put_int o "reference_ns" ((reference_before + reference_ns ()) / 2);
  if traced then begin
    let pct name p =
      let d = List.sort compare (Span.durations name) in
      match d with
      | [] -> 0
      | _ -> List.nth d (min (List.length d - 1) (List.length d * p / 100))
    in
    put_int o "sink_p50_ns" (pct "runtime.sink" 50);
    put_int o "sink_p99_ns" (pct "runtime.sink" 99);
    let step = match c.kind with Rack_heat -> "rack.step" | Single _ -> "step" in
    put_int o "step_p50_ns" (pct step 50);
    put_int o "step_p99_ns" (pct step 99)
  end;
  List.rev !o
