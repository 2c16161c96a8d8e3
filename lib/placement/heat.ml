type cell = { mutable value : int; mutable epoch : int }

type t = {
  epoch_ns : int;
  cells : (int, cell) Hashtbl.t; (* vpage -> decaying counter *)
  mutable touches : int;
}

let create ~epoch_ns =
  if epoch_ns <= 0 then invalid_arg "Heat.create: non-positive epoch";
  { epoch_ns; cells = Hashtbl.create 256; touches = 0 }

(* Lazy decay: halve once per epoch elapsed since the cell was last
   brought current.  A shift by >= 63 would be undefined; past that the
   counter is simply gone. *)
let settle t cell ~now =
  let epoch = now / t.epoch_ns in
  if epoch > cell.epoch then begin
    let elapsed = epoch - cell.epoch in
    cell.value <- (if elapsed >= 63 then 0 else cell.value lsr elapsed);
    cell.epoch <- epoch
  end

let touch t ~vpage ~weight ~now =
  if weight < 0 then invalid_arg "Heat.touch: negative weight";
  t.touches <- t.touches + 1;
  match Hashtbl.find_opt t.cells vpage with
  | Some cell ->
      settle t cell ~now;
      cell.value <- cell.value + weight
  | None ->
      Hashtbl.add t.cells vpage { value = weight; epoch = now / t.epoch_ns }

let heat t ~vpage ~now =
  match Hashtbl.find_opt t.cells vpage with
  | None -> 0
  | Some cell ->
      settle t cell ~now;
      cell.value

let fold t ~now ~only f init =
  Hashtbl.fold
    (fun vpage cell acc ->
      if only vpage then begin
        settle t cell ~now;
        f ~vpage ~heat:cell.value acc
      end
      else acc)
    t.cells init

let touches t = t.touches
