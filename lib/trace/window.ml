type t = {
  quantum : int;
  inner : Access.sink;
  on_boundary : window:int -> unit;
  mutable in_window : int;
  mutable closed : int;
}

let create ~quantum ~inner ~on_boundary =
  if quantum <= 0 then invalid_arg "Window.create: quantum must be positive";
  { quantum; inner; on_boundary; in_window = 0; closed = 0 }

let close t =
  t.on_boundary ~window:t.closed;
  t.closed <- t.closed + 1;
  t.in_window <- 0

let sink t event =
  t.inner event;
  t.in_window <- t.in_window + 1;
  if t.in_window = t.quantum then close t

let flush t = if t.in_window > 0 then close t
