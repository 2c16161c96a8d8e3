type clause =
  | Node_crash of { at_ns : int; id : int }
  | Link_flap of { at_ns : int; dur_ns : int }
  | Partition of { at_ns : int; dur_ns : int; ids : int list }
  | Rpc_timeout of { p : float }
  | Wqe_drop of { p : float }
  | Wqe_delay of { p : float; delay_ns : int }
  | Bit_flip of { p : float }
  | Torn_write of { p : float }
  | Stale_read of { p : float }
  | Dup_deliver of { p : float }

type t = clause list

(* ------------------------------------------------------------------ *)
(* Parsing *)

module Clause = Kona_util.Clause

let prob_of_string s =
  match float_of_string_opt s with
  | Some p when p >= 0. && p <= 1. -> p
  | Some _ | None -> Clause.bad "bad probability %S (expected a float in [0,1])" s

let of_clause (c : Clause.t) =
  let kind = c.Clause.kind in
  (* A probabilistic kind is armed for the whole run: a trigger time on
     it would be dropped silently, so it is refused. *)
  let p () =
    if c.Clause.at_ns <> None then
      Clause.bad "%s is probabilistic and takes no trigger time (drop the @...)" kind;
    prob_of_string (Clause.field c "p")
  in
  match kind with
  | "node-crash" ->
      Clause.known c [ "id" ];
      Node_crash
        { at_ns = Clause.trigger c; id = Clause.int ~key:"id" (Clause.field c "id") }
  | "link-flap" ->
      Clause.known c [ "dur" ];
      Link_flap
        { at_ns = Clause.trigger c; dur_ns = Clause.duration (Clause.field c "dur") }
  | "partition" ->
      (* Asymmetric partition: the named nodes stay alive but their links
         drop control + data traffic for the window — distinct from the
         fail-stop [node-crash]. *)
      Clause.known c [ "dur"; "nodes" ];
      let ids =
        Clause.list ~key:"nodes" (Clause.nonneg ~key:"nodes") (Clause.field c "nodes")
      in
      let dur_ns = Clause.duration (Clause.field c "dur") in
      if dur_ns < 1 then Clause.bad "partition dur must be positive";
      Partition { at_ns = Clause.trigger c; dur_ns; ids }
  | "rpc-timeout" ->
      Clause.known c [ "p" ];
      Rpc_timeout { p = p () }
  | "wqe-drop" ->
      Clause.known c [ "p" ];
      Wqe_drop { p = p () }
  | "wqe-delay" ->
      Clause.known c [ "p"; "ns" ];
      let p = p () in
      Wqe_delay { p; delay_ns = Clause.duration (Clause.field c "ns") }
  | "bit-flip" ->
      Clause.known c [ "p" ];
      Bit_flip { p = p () }
  | "torn-write" ->
      Clause.known c [ "p" ];
      Torn_write { p = p () }
  | "stale-read" ->
      Clause.known c [ "p" ];
      Stale_read { p = p () }
  | "dup-deliver" ->
      Clause.known c [ "p" ];
      Dup_deliver { p = p () }
  | other ->
      Clause.bad
        "unknown fault kind %S (node-crash | link-flap | partition | rpc-timeout | \
         wqe-drop | wqe-delay | bit-flip | torn-write | stale-read | dup-deliver)"
        other

(* Probabilistic kinds may appear at most once per plan; a silent
   last-wins would make e.g. "wqe-drop:p=0.1;wqe-drop:p=0" a no-op
   plan that looks loaded.  Scheduled kinds (node-crash, link-flap)
   legitimately repeat. *)
let prob_kind = function
  | Node_crash _ | Link_flap _ | Partition _ -> None
  | Rpc_timeout _ -> Some "rpc-timeout"
  | Wqe_drop _ -> Some "wqe-drop"
  | Wqe_delay _ -> Some "wqe-delay"
  | Bit_flip _ -> Some "bit-flip"
  | Torn_write _ -> Some "torn-write"
  | Stale_read _ -> Some "stale-read"
  | Dup_deliver _ -> Some "dup-deliver"

let check_duplicates plan =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun clause ->
      match prob_kind clause with
      | None -> ()
      | Some kind ->
          if Hashtbl.mem seen kind then
            Clause.bad "duplicate clause kind %S in one plan (each probabilistic kind \
                        may appear at most once)" kind
          else Hashtbl.add seen kind ())
    plan

let parse =
  Clause.parse (fun s ->
      let plan = List.map (fun c -> of_clause (Clause.of_string c)) (Clause.split s) in
      check_duplicates plan;
      plan)

let parse_exn s =
  match parse s with Ok p -> p | Error msg -> invalid_arg ("Fault_spec: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let clause_to_string = function
  | Node_crash { at_ns; id } ->
      Printf.sprintf "node-crash@%s:id=%d" (Clause.duration_to_string at_ns) id
  | Link_flap { at_ns; dur_ns } ->
      Printf.sprintf "link-flap@%s:dur=%s"
        (Clause.duration_to_string at_ns)
        (Clause.duration_to_string dur_ns)
  | Partition { at_ns; dur_ns; ids } ->
      Printf.sprintf "partition@%s:dur=%s,nodes=%s"
        (Clause.duration_to_string at_ns)
        (Clause.duration_to_string dur_ns)
        (Clause.list_to_string string_of_int ids)
  | Rpc_timeout { p } -> Printf.sprintf "rpc-timeout:p=%g" p
  | Wqe_drop { p } -> Printf.sprintf "wqe-drop:p=%g" p
  | Wqe_delay { p; delay_ns } ->
      Printf.sprintf "wqe-delay:p=%g,ns=%s" p (Clause.duration_to_string delay_ns)
  | Bit_flip { p } -> Printf.sprintf "bit-flip:p=%g" p
  | Torn_write { p } -> Printf.sprintf "torn-write:p=%g" p
  | Stale_read { p } -> Printf.sprintf "stale-read:p=%g" p
  | Dup_deliver { p } -> Printf.sprintf "dup-deliver:p=%g" p

let to_string t = String.concat ";" (List.map clause_to_string t)
