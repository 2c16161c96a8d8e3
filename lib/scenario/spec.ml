module Units = Kona_util.Units
module Clause = Kona_util.Clause
module Fault_spec = Kona_faults.Fault_spec
module Rack_ops = Kona_rack.Rack_ops

type op =
  | Run of { n : int }
  | Crash of { id : int }
  | Flap of { dur_ns : int }
  | Partition of { dur_ns : int; ids : int list }
  | Corrupt of Fault_spec.clause
  | Quota of { tenant : int; bytes : int }
  | Publish of { pages : int }
  | Shared of { rounds : int }
  | Mwrite of { rounds : int }
  | Shm_rpc of { calls : int }
  | Scrub
  | Rack of Rack_ops.op
  | Migrate_epoch

type setup = {
  tenants : int;
  nodes : int;
  node_cap : int;
  gbps : float;
  replicas : int;
  fmem : int;
  quantum : int;
  seed : int;
  fault_seed : int;
  scrub_ns : int;
  verify : bool;
  workloads : string list;
  shares : int list;
  quotas : int list;
  policy : string;
  fast_nodes : int;
  slow_extra_ns : int;
  heartbeat_ns : int;
  lease_ns : int;
  writers : int;
}

type t = { setup : setup; ops : op list }

let default_setup =
  {
    tenants = 1;
    nodes = 2;
    node_cap = Units.mib 128;
    gbps = 1.0;
    replicas = 1;
    fmem = 256;
    quantum = 256;
    seed = 42;
    fault_seed = 42;
    scrub_ns = 200_000;
    verify = true;
    workloads = [ "kv-seq" ];
    shares = [ 1 ];
    quotas = [ 0 ];
    policy = "first-fit";
    fast_nodes = 1;
    slow_extra_ns = 0;
    heartbeat_ns = 0;
    lease_ns = 200_000;
    writers = 1;
  }

(* ------------------------------------------------------------------ *)
(* Parsing: the clause lexer is {!Kona_util.Clause}, shared with
   {!Kona_faults.Fault_spec} and {!Kona_rack.Rack_ops}.  Spec clauses take
   no [@T]: ops apply at their position in the sequence. *)

let parse_setup raw =
  let c = Clause.of_string raw in
  if c.Clause.kind <> "setup" || c.Clause.at_ns <> None then
    Clause.bad "spec must start with a setup: clause, got %S" raw;
  Clause.known c
    [ "tenants"; "nodes"; "cap"; "gbps"; "replicas"; "fmem"; "quantum"; "seed";
      "fseed"; "scrub"; "verify"; "workloads"; "shares"; "quotas"; "policy";
      "fast"; "slowns"; "hb"; "lease"; "writers" ];
  let get key f default =
    match List.assoc_opt key c.Clause.params with Some v -> f v | None -> default
  in
  let s =
    {
      tenants = get "tenants" (Clause.pos ~key:"tenants") default_setup.tenants;
      nodes = get "nodes" (Clause.pos ~key:"nodes") default_setup.nodes;
      node_cap = get "cap" (Clause.pos ~key:"cap") default_setup.node_cap;
      gbps =
        get "gbps"
          (fun v ->
            match float_of_string_opt v with
            | Some g when g > 0. -> g
            | Some _ | None -> Clause.bad "bad gbps %S (expected a positive float)" v)
          default_setup.gbps;
      replicas = get "replicas" (Clause.nonneg ~key:"replicas") default_setup.replicas;
      fmem = get "fmem" (Clause.pos ~key:"fmem") default_setup.fmem;
      quantum = get "quantum" (Clause.pos ~key:"quantum") default_setup.quantum;
      seed = get "seed" (Clause.nonneg ~key:"seed") default_setup.seed;
      fault_seed = get "fseed" (Clause.nonneg ~key:"fseed") default_setup.fault_seed;
      scrub_ns = get "scrub" Clause.duration default_setup.scrub_ns;
      verify =
        get "verify"
          (function
            | "0" -> false
            | "1" -> true
            | v -> Clause.bad "bad verify %S (expected 0 or 1)" v)
          default_setup.verify;
      workloads =
        get "workloads" (Clause.list ~key:"workloads" Fun.id) default_setup.workloads;
      shares =
        get "shares"
          (Clause.list ~key:"shares" (Clause.pos ~key:"shares"))
          default_setup.shares;
      quotas =
        get "quotas"
          (Clause.list ~key:"quotas" (Clause.nonneg ~key:"quotas"))
          default_setup.quotas;
      policy = get "policy" Fun.id default_setup.policy;
      fast_nodes = get "fast" (Clause.nonneg ~key:"fast") default_setup.fast_nodes;
      slow_extra_ns = get "slowns" Clause.duration default_setup.slow_extra_ns;
      heartbeat_ns = get "hb" Clause.duration default_setup.heartbeat_ns;
      lease_ns = get "lease" Clause.duration default_setup.lease_ns;
      writers = get "writers" (Clause.pos ~key:"writers") default_setup.writers;
    }
  in
  if s.heartbeat_ns > 0 && s.lease_ns < s.heartbeat_ns then
    Clause.bad "lease (%d ns) must be >= hb (%d ns)" s.lease_ns s.heartbeat_ns;
  s

(* Not a scenario op: a fault clause in Fault_spec grammar, armed
   mid-sequence.  Scheduled kinds have dedicated scenario ops (crash:,
   flap:, partition:) that act at the op's position in the sequence
   rather than at an absolute virtual time. *)
let fault_op raw c =
  match Fault_spec.of_clause c with
  | Fault_spec.Node_crash _ | Fault_spec.Link_flap _ | Fault_spec.Partition _ ->
      Clause.bad
        "scheduled fault %S not allowed here (use \
         crash:id=/flap:dur=/partition:dur=,nodes=)"
        raw
  | fc -> Corrupt fc
  | exception Clause.Bad msg -> Clause.bad "unknown op %S (%s)" raw msg

let parse_op raw =
  let c = Clause.of_string raw in
  match (c.Clause.at_ns, c.Clause.kind) with
  | None, "run" ->
      Clause.known c [ "n" ];
      Run { n = Clause.pos ~key:"n" (Clause.field c "n") }
  | None, "crash" ->
      Clause.known c [ "id" ];
      Crash { id = Clause.nonneg ~key:"id" (Clause.field c "id") }
  | None, "flap" ->
      Clause.known c [ "dur" ];
      let dur_ns = Clause.duration (Clause.field c "dur") in
      if dur_ns < 1 then Clause.bad "flap dur must be positive";
      Flap { dur_ns }
  | None, "partition" ->
      Clause.known c [ "dur"; "nodes" ];
      let dur_ns = Clause.duration (Clause.field c "dur") in
      if dur_ns < 1 then Clause.bad "partition dur must be positive";
      let ids =
        Clause.list ~key:"nodes" (Clause.nonneg ~key:"nodes") (Clause.field c "nodes")
      in
      Partition { dur_ns; ids }
  | None, "quota" ->
      Clause.known c [ "t"; "bytes" ];
      Quota
        {
          tenant = Clause.nonneg ~key:"t" (Clause.field c "t");
          bytes = Clause.nonneg ~key:"bytes" (Clause.field c "bytes");
        }
  | None, "publish" ->
      Clause.known c [ "pages" ];
      Publish { pages = Clause.pos ~key:"pages" (Clause.field c "pages") }
  | None, "shared" ->
      Clause.known c [ "rounds" ];
      Shared { rounds = Clause.pos ~key:"rounds" (Clause.field c "rounds") }
  | None, "mwrite" ->
      Clause.known c [ "rounds" ];
      Mwrite { rounds = Clause.pos ~key:"rounds" (Clause.field c "rounds") }
  | None, "shmrpc" ->
      Clause.known c [ "calls" ];
      Shm_rpc { calls = Clause.pos ~key:"calls" (Clause.field c "calls") }
  | None, "scrub" ->
      Clause.known c [];
      Scrub
  | None, ("add" | "drain" | "rebalance") -> Rack (Rack_ops.op_of_clause c)
  | None, "migrate-epoch" ->
      Clause.known c [];
      Migrate_epoch
  | _ -> fault_op raw c

let parse =
  Clause.parse (fun s ->
      match Clause.split s with
      | [] -> Clause.bad "empty spec (expected setup:...[;op...])"
      | setup :: ops -> { setup = parse_setup setup; ops = List.map parse_op ops })

let parse_exn s =
  match parse s with Ok t -> t | Error msg -> invalid_arg ("Scenario spec: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Rendering: canonical and total — every setup field is always emitted,
   so [parse (to_string t) = Ok t] holds structurally. *)

let setup_to_string s =
  Printf.sprintf
    "setup:tenants=%d,nodes=%d,cap=%d,gbps=%g,replicas=%d,fmem=%d,quantum=%d,seed=%d,fseed=%d,scrub=%s,verify=%d,workloads=%s,shares=%s,quotas=%s,policy=%s,fast=%d,slowns=%s,hb=%s,lease=%s,writers=%d"
    s.tenants s.nodes s.node_cap s.gbps s.replicas s.fmem s.quantum s.seed
    s.fault_seed
    (Clause.duration_to_string s.scrub_ns)
    (if s.verify then 1 else 0)
    (Clause.list_to_string Fun.id s.workloads)
    (Clause.list_to_string string_of_int s.shares)
    (Clause.list_to_string string_of_int s.quotas)
    s.policy s.fast_nodes
    (Clause.duration_to_string s.slow_extra_ns)
    (Clause.duration_to_string s.heartbeat_ns)
    (Clause.duration_to_string s.lease_ns)
    s.writers

let op_to_string = function
  | Run { n } -> Printf.sprintf "run:n=%d" n
  | Crash { id } -> Printf.sprintf "crash:id=%d" id
  | Flap { dur_ns } -> Printf.sprintf "flap:dur=%s" (Clause.duration_to_string dur_ns)
  | Partition { dur_ns; ids } ->
      Printf.sprintf "partition:dur=%s,nodes=%s"
        (Clause.duration_to_string dur_ns)
        (Clause.list_to_string string_of_int ids)
  | Corrupt c -> Fault_spec.to_string [ c ]
  | Quota { tenant; bytes } -> Printf.sprintf "quota:t=%d,bytes=%d" tenant bytes
  | Publish { pages } -> Printf.sprintf "publish:pages=%d" pages
  | Shared { rounds } -> Printf.sprintf "shared:rounds=%d" rounds
  | Mwrite { rounds } -> Printf.sprintf "mwrite:rounds=%d" rounds
  | Shm_rpc { calls } -> Printf.sprintf "shmrpc:calls=%d" calls
  | Scrub -> "scrub"
  | Rack op -> Rack_ops.op_to_string op
  | Migrate_epoch -> "migrate-epoch"

let to_string t =
  String.concat ";" (setup_to_string t.setup :: List.map op_to_string t.ops)
