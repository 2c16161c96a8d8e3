type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Dynarray: index %d out of bounds [0,%d)" i t.len)

let add_last t x =
  if t.len = Array.length t.data then begin
    let cap = max 8 (2 * Array.length t.data) in
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  check t i;
  t.data.(i)

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
