type t = { counts : (int, int ref) Hashtbl.t; mutable n : int; mutable sum : int }

let create () = { counts = Hashtbl.create 64; n = 0; sum = 0 }

let add_many t v k =
  assert (k >= 0);
  (match Hashtbl.find_opt t.counts v with
  | Some r -> r := !r + k
  | None -> Hashtbl.add t.counts v (ref k));
  t.n <- t.n + k;
  t.sum <- t.sum + (v * k)

let add t v = add_many t v 1
let count t = t.n

let sorted t =
  Hashtbl.fold (fun v r acc -> (v, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let at t v =
  if t.n = 0 then 0.
  else
    let below =
      Hashtbl.fold (fun v' r acc -> if v' <= v then acc + !r else acc) t.counts 0
    in
    float_of_int below /. float_of_int t.n

let quantile t q =
  if t.n = 0 then invalid_arg "Cdf.quantile: empty";
  if q <= 0. || q > 1. then invalid_arg "Cdf.quantile: q outside (0,1]";
  let target = q *. float_of_int t.n in
  let rec loop acc = function
    | [] -> invalid_arg "Cdf.quantile: empty"
    | (v, k) :: rest ->
        let acc = acc + k in
        if float_of_int acc >= target then v else loop acc rest
  in
  loop 0 (sorted t)

let mean t = if t.n = 0 then nan else float_of_int t.sum /. float_of_int t.n

let series t ~max_value =
  let rec loop v acc below remaining =
    if v > max_value then List.rev acc
    else
      let here =
        match Hashtbl.find_opt t.counts v with Some r -> !r | None -> 0
      in
      let below = below + here in
      let p = if t.n = 0 then 0. else float_of_int below /. float_of_int t.n in
      loop (v + 1) ((v, p) :: acc) below remaining
  in
  loop 0 [] 0 t.n
