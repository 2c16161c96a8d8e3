module Clause = Kona_util.Clause

type op =
  | Add_node of { capacity : int option }
  | Drain of { id : int }
  | Rebalance

type clause = { at_ns : int; op : op }
type t = clause list

let op_of_clause (c : Clause.t) =
  match c.Clause.kind with
  | "add" ->
      Clause.known c [ "cap" ];
      let cap = List.assoc_opt "cap" c.Clause.params in
      Add_node { capacity = Option.map (Clause.pos ~key:"cap") cap }
  | "drain" ->
      Clause.known c [ "id" ];
      Drain { id = Clause.nonneg ~key:"id" (Clause.field c "id") }
  | "rebalance" ->
      Clause.known c [];
      Rebalance
  | other -> Clause.bad "unknown rack op %S (add | drain | rebalance)" other

let parse =
  Clause.parse (fun s ->
      List.map
        (fun raw ->
          let c = Clause.of_string raw in
          let at_ns = Clause.trigger c in
          { at_ns; op = op_of_clause c })
        (Clause.split s))

let parse_exn s =
  match parse s with Ok p -> p | Error msg -> invalid_arg ("Rack_ops: " ^ msg)

let op_to_string ?at_ns op =
  let at = match at_ns with Some t -> "@" ^ Clause.duration_to_string t | None -> "" in
  match op with
  | Add_node { capacity = None } -> "add" ^ at
  | Add_node { capacity = Some cap } -> Printf.sprintf "add%s:cap=%d" at cap
  | Drain { id } -> Printf.sprintf "drain%s:id=%d" at id
  | Rebalance -> "rebalance" ^ at

let to_string t =
  String.concat ";" (List.map (fun { at_ns; op } -> op_to_string ~at_ns op) t)
