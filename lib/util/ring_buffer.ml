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

let force_push t x =
  if t.len = capacity t then begin
    let displaced = t.slots.(t.head) in
    t.slots.(t.head) <- Some x;
    t.head <- (t.head + 1) mod capacity t;
    displaced
  end
  else begin
    t.slots.((t.head + t.len) mod capacity t) <- Some x;
    t.len <- t.len + 1;
    None
  end

let iter t f =
  for i = 0 to t.len - 1 do
    match t.slots.((t.head + i) mod capacity t) with
    | Some x -> f x
    | None -> assert false
  done
