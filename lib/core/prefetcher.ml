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

(* The slot of the stream [vpage] continues (its last page, or the one
   after it) from slot [i] on, or -1: a scan that returns an index, with
   no closure and no [Some], as [Fmem.scan] does. *)
let rec find (streams : stream array) vpage i =
  if i = Array.length streams then -1
  else
    let last = streams.(i).last in
    if last = vpage - 1 || last = vpage then i else find streams vpage (i + 1)

(* The least recently advanced slot, the first one on a tie. *)
let rec oldest (streams : stream array) i best =
  if i = Array.length streams then best
  else
    oldest streams (i + 1)
      (if streams.(i).stamp < streams.(best).stamp then i else best)

let observe_miss t ~vpage =
  t.tick <- t.tick + 1;
  match find t.streams vpage 0 with
  | -1 ->
      (* New stream: steal the least recently advanced slot. *)
      let victim = t.streams.(oldest t.streams 1 0) in
      victim.last <- vpage;
      victim.ahead <- vpage;
      victim.stamp <- t.tick
  | i ->
      (* Sequential continuation: run ahead of the demand stream. *)
      let stream = t.streams.(i) in
      stream.last <- Int.max stream.last vpage;
      stream.stamp <- t.tick;
      request t stream (vpage + depth)

let issued t = t.issued
