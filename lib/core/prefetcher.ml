type policy = Next_page | Majority_stride

type stream = {
  mutable last : int; (* last page of the recognized run *)
  mutable ahead : int; (* highest page already requested *)
  mutable stamp : int;
}

type t = {
  policy : policy;
  streams : stream array;
  depth : int;
  on_prefetch : vpage:int -> unit;
  (* Majority_stride state: a sliding window of recent miss deltas. *)
  deltas : int array;
  mutable delta_cursor : int;
  mutable last_miss : int;
  requested : Kona_util.Lru.t; (* stride-mode dedup, LRU-bounded *)
  requested_cap : int;
  mutable tick : int;
  mutable issued : int;
}

let history = 8

let create ?(policy = Next_page) ?(streams = 8) ?(depth = 2) ?(requested_cap = 4096)
    ~on_prefetch () =
  assert (streams > 0 && depth > 0 && requested_cap > 0);
  {
    policy;
    streams = Array.init streams (fun _ -> { last = -2; ahead = -2; stamp = 0 });
    depth;
    on_prefetch;
    deltas = Array.make history 0;
    delta_cursor = 0;
    last_miss = min_int;
    requested = Kona_util.Lru.create ();
    requested_cap;
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

(* Majority vote over the delta window: the stride appearing in more than
   half the history slots, if any. *)
let majority_delta t =
  let best = ref 0 and best_count = ref 0 in
  Array.iter
    (fun d ->
      if d <> 0 then begin
        let c = Array.fold_left (fun acc d' -> if d' = d then acc + 1 else acc) 0 t.deltas in
        if c > !best_count then begin
          best := d;
          best_count := c
        end
      end)
    t.deltas;
  if 2 * !best_count > history then Some !best else None

let observe_stride t ~vpage =
  if t.last_miss <> min_int then begin
    t.deltas.(t.delta_cursor) <- vpage - t.last_miss;
    t.delta_cursor <- (t.delta_cursor + 1) mod history
  end;
  t.last_miss <- vpage;
  match majority_delta t with
  | None -> ()
  | Some stride ->
      for k = 1 to t.depth do
        let target = vpage + (k * stride) in
        if target >= 0 && not (Kona_util.Lru.mem t.requested target) then begin
          Kona_util.Lru.touch t.requested target;
          if Kona_util.Lru.length t.requested > t.requested_cap then
            ignore (Kona_util.Lru.evict_lru t.requested : int option);
          t.issued <- t.issued + 1;
          t.on_prefetch ~vpage:target
        end
      done

let observe_next_page t ~vpage =
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
      request t stream (vpage + t.depth)
  | None ->
      (* New stream: steal the least recently advanced slot. *)
      let victim = ref t.streams.(0) in
      Array.iter (fun s -> if s.stamp < !victim.stamp then victim := s) t.streams;
      !victim.last <- vpage;
      !victim.ahead <- vpage;
      !victim.stamp <- t.tick

let observe_miss t ~vpage =
  t.tick <- t.tick + 1;
  match t.policy with
  | Next_page -> observe_next_page t ~vpage
  | Majority_stride -> observe_stride t ~vpage

(* The page left the local cache: dropping it from the dedup table lets a
   later stream over the same region prefetch it again. *)
let forget t ~vpage = Kona_util.Lru.remove t.requested vpage
let requested_pending t = Kona_util.Lru.length t.requested

let issued t = t.issued
