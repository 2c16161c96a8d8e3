open Kona_util

(* Row widths: VoltDB updates whole tuples, not single fields.  Stock rows
   are 64B (quantity, ytd, order_cnt, remote_cnt, dist info) of which an
   update rewrites 48B; customer rows are 64B (balance, ytd_payment,
   payment_cnt, 40B last-payment data) of which a payment rewrites 56B. *)
let stock_row = 64
let customer_row = 64

type t = {
  heap : Heap.t;
  warehouses : int;
  items : int;
  customers : int;
  max_orders : int;
  (* order table columns (append-only) *)
  o_id : int;
  o_w_id : int;
  o_c_id : int;
  o_amount : int;
  stock : int; (* stock rows per (warehouse, item) *)
  customer : int; (* customer rows *)
  history : int; (* payment history append column *)
  mutable orders : int;
  mutable history_rows : int;
}

let initial_quantity = 100

let create heap ~warehouses ~items ~customers ~max_orders =
  assert (warehouses > 0 && items > 0 && customers > 0 && max_orders > 0);
  let col n width = Heap.alloc heap (width * n) in
  let t =
    {
      heap;
      warehouses;
      items;
      customers;
      max_orders;
      o_id = col max_orders 8;
      o_w_id = col max_orders 8;
      o_c_id = col max_orders 8;
      o_amount = col max_orders 8;
      stock = col (warehouses * items) stock_row;
      customer = col customers customer_row;
      history = col max_orders 8;
      orders = 0;
      history_rows = 0;
    }
  in
  for i = 0 to (warehouses * items) - 1 do
    let row = t.stock + (stock_row * i) in
    Heap.write_u64 heap row initial_quantity;
    Heap.write_u64 heap (row + 8) 0;
    Heap.write_u64 heap (row + 16) 0;
    Heap.write_u64 heap (row + 24) 0
  done;
  for c = 0 to customers - 1 do
    let row = t.customer + (customer_row * c) in
    Heap.write_u64 heap row 1000;
    Heap.write_u64 heap (row + 8) 0;
    Heap.write_u64 heap (row + 16) 0
  done;
  t

type txn_stats = { new_orders : int; payments : int; rollbacks : int }

let stock_addr t w i = t.stock + (stock_row * ((w * t.items) + i))
let customer_addr t c = t.customer + (customer_row * c)
let stock_dist_info = String.make 16 's'

let new_order t ~rng =
  let h = t.heap in
  let w = Rng.int rng t.warehouses in
  let c = Rng.zipf rng ~n:t.customers ~theta:0.8 in
  let n_items = 5 + Rng.int rng 11 in
  let rollback = Rng.int rng 100 = 0 in
  (* Items are zipf-hot: popular products cluster at low ids, so stock-row
     update traffic has clustered hot pages and a sparse tail. *)
  let picked = Array.init n_items (fun _ -> Rng.zipf rng ~n:t.items ~theta:0.85) in
  let amount = ref 0 in
  Array.iter
    (fun item ->
      let row = stock_addr t w item in
      let q = Heap.read_u64 h row in
      if not rollback then begin
        let q' = if q > 10 then q - 1 else q + 91 (* restock, per TPC-C *) in
        Heap.write_u64 h row q';
        Heap.write_u64 h (row + 8) (Heap.read_u64 h (row + 8) + 1);
        Heap.write_u64 h (row + 16) (Heap.read_u64 h (row + 16) + 1);
        Heap.write_u64 h (row + 24) 0;
        Heap.write_string h (row + 32) stock_dist_info;
        amount := !amount + 1 + (item mod 97)
      end)
    picked;
  if rollback then false
  else if t.orders >= t.max_orders then false
  else begin
    let r = t.orders in
    Heap.write_u64 h (t.o_id + (8 * r)) (r + 1);
    Heap.write_u64 h (t.o_w_id + (8 * r)) w;
    Heap.write_u64 h (t.o_c_id + (8 * r)) c;
    Heap.write_u64 h (t.o_amount + (8 * r)) !amount;
    t.orders <- t.orders + 1;
    true
  end

let payment_data = String.make 32 'p'

let payment t ~rng =
  let h = t.heap in
  let c = Rng.zipf rng ~n:t.customers ~theta:0.8 in
  let amount = 1 + Rng.int rng 5000 in
  let row = customer_addr t c in
  let b = Heap.read_u64 h row in
  Heap.write_u64 h row (b - amount);
  Heap.write_u64 h (row + 8) (Heap.read_u64 h (row + 8) + amount);
  Heap.write_u64 h (row + 16) (Heap.read_u64 h (row + 16) + 1);
  Heap.write_string h (row + 24) payment_data;
  if t.history_rows < t.max_orders then begin
    Heap.write_u64 h (t.history + (8 * t.history_rows)) amount;
    t.history_rows <- t.history_rows + 1
  end

let order_status t ~rng =
  (* Read-only: scan the last few orders of a random customer. *)
  let h = t.heap in
  let c = Rng.int rng t.customers in
  let scanned = ref 0 in
  let r = ref (t.orders - 1) in
  while !scanned < 8 && !r >= 0 do
    if Heap.read_u64 h (t.o_c_id + (8 * !r)) = c then
      ignore (Heap.read_u64 h (t.o_amount + (8 * !r)));
    incr scanned;
    decr r
  done

let run_mix t ~rng ~transactions =
  let stats = ref { new_orders = 0; payments = 0; rollbacks = 0 } in
  for _ = 1 to transactions do
    let dice = Rng.int rng 100 in
    if dice < 45 then begin
      if new_order t ~rng then stats := { !stats with new_orders = !stats.new_orders + 1 }
      else stats := { !stats with rollbacks = !stats.rollbacks + 1 }
    end
    else if dice < 88 then begin
      payment t ~rng;
      stats := { !stats with payments = !stats.payments + 1 }
    end
    else order_status t ~rng
  done;
  !stats

let order_count t = t.orders

