type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let advance t ns =
  assert (ns >= 0);
  t.now <- t.now + ns

let advance_to t ns = if ns > t.now then t.now <- ns
