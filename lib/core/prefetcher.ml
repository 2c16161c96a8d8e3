type stream = {
  mutable last : int; (* last page of the recognized run *)
  mutable ahead : int; (* highest page already requested *)
  mutable stamp : int;
}

type t = {
  streams : stream array;
  on_prefetch : vpage:int -> unit;
  mutable tick : int;
  mutable issued : int;
}

let slots = 8
let depth = 2

let create ~on_prefetch =
  {
    streams = Array.init slots (fun _ -> { last = -2; ahead = -2; stamp = 0 });
    on_prefetch;
    tick = 0;
    issued = 0;
  }

let request t stream upto =
  let first = max (stream.last + 1) (stream.ahead + 1) in
  for page = first to upto do
    t.issued <- t.issued + 1;
    t.on_prefetch ~vpage:page
  done;
  if upto > stream.ahead then stream.ahead <- upto

let observe_miss t ~vpage =
  t.tick <- t.tick + 1;
  let rec find i =
    if i = Array.length t.streams then None
    else if t.streams.(i).last = vpage - 1 || t.streams.(i).last = vpage then Some t.streams.(i)
    else find (i + 1)
  in
  match find 0 with
  | Some stream ->
      (* Sequential continuation: run ahead of the demand stream. *)
      stream.last <- max stream.last vpage;
      stream.stamp <- t.tick;
      request t stream (vpage + depth)
  | None ->
      (* New stream: steal the least recently advanced slot. *)
      let victim = ref t.streams.(0) in
      Array.iter (fun s -> if s.stamp < !victim.stamp then victim := s) t.streams;
      !victim.last <- vpage;
      !victim.ahead <- vpage;
      !victim.stamp <- t.tick

let issued t = t.issued
