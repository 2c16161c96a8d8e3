type 'a t = {
  slots : 'a option array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { slots = Array.make capacity None; head = 0; len = 0 }

let capacity t = Array.length t.slots
let length t = t.len
let is_full t = t.len = capacity t

let push t x =
  if is_full t then false
  else begin
    let tail = (t.head + t.len) mod capacity t in
    t.slots.(tail) <- Some x;
    t.len <- t.len + 1;
    true
  end

let force_push t x =
  if is_full t then begin
    let displaced = t.slots.(t.head) in
    t.slots.(t.head) <- Some x;
    t.head <- (t.head + 1) mod capacity t;
    displaced
  end
  else begin
    ignore (push t x : bool);
    None
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.slots.(t.head) in
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod capacity t;
    t.len <- t.len - 1;
    x
  end

let peek t = if t.len = 0 then None else t.slots.(t.head)

let pop_n t n =
  let rec loop acc n =
    if n = 0 then List.rev acc
    else
      match pop t with None -> List.rev acc | Some x -> loop (x :: acc) (n - 1)
  in
  loop [] n

let iter t f =
  for i = 0 to t.len - 1 do
    match t.slots.((t.head + i) mod capacity t) with
    | Some x -> f x
    | None -> assert false
  done

let clear t =
  Array.fill t.slots 0 (capacity t) None;
  t.head <- 0;
  t.len <- 0
