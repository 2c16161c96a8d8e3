(** Scheduled rack-controller operations, parsed from a compact spec
    string (the placement-era sibling of {!Kona_faults.Fault_spec}):

    {v add@3ms:cap=67108864;drain@5ms:id=1;rebalance@7ms v}

    - [add@T[:cap=BYTES]] — register a fresh memory node (capacity
      defaults to the rack's [node_capacity]);
    - [drain@T:id=N] — stop placing on node [N] and re-home every page
      it holds (composing with failover: a crashed-and-failed-over node
      drains from its promoted mirror);
    - [rebalance@T] — one forced capacity-balancing migration pass.

    Every clause needs its trigger time.  The lexing (clauses,
    durations, integer fields) is {!Kona_util.Clause}'s, and the
    scenario grammar reads and renders its untimed rack ops through
    {!op_of_clause} and {!op_to_string}. *)

type op =
  | Add_node of { capacity : int option }
  | Drain of { id : int }
  | Rebalance

type clause = { at_ns : int; op : op }
type t = clause list

val op_of_clause : Kona_util.Clause.t -> op
(** Read one op from a lexed clause's kind and parameters; its trigger
    time, if any, is left to the caller.  Raises {!Kona_util.Clause.Bad}. *)

val op_to_string : ?at_ns:int -> op -> string
(** [add:cap=N], [drain:id=N] or [rebalance], with [@T] after the kind
    when [at_ns] is given. *)

val parse_exn : string -> t
(** Raises [Invalid_argument] with the parse error. *)

val to_string : t -> string
