(** VoltDB-style in-memory column store running a TPC-C-flavoured OLTP mix
    (paper Table 2: "VoltDB", TPC-C).

    Tables are columnar arrays in the arena.  New-order transactions append
    to several order columns (sequential tail writes in widely separated
    arrays) and perform random read-modify-writes on the stock table;
    payment transactions update customer balances and append to a history
    column — together giving the moderate, mixed amplification the paper
    reports (3.74x at 4KB). *)

type t

val create :
  Heap.t -> warehouses:int -> items:int -> customers:int -> max_orders:int -> t

type txn_stats = { new_orders : int; payments : int; rollbacks : int }

val run_mix : t -> rng:Kona_util.Rng.t -> transactions:int -> txn_stats
(** Standard-ish mix: ~45% new-order, ~43% payment, rest order-status
    (read-only scans).  1% of new-orders roll back (per TPC-C), touching
    memory but appending nothing. *)

val order_count : t -> int
