type t = { counts : (int, int ref) Hashtbl.t; mutable n : int; mutable sum : int }

let create () = { counts = Hashtbl.create 64; n = 0; sum = 0 }

let add t v =
  (match Hashtbl.find_opt t.counts v with
  | Some r -> incr r
  | None -> Hashtbl.add t.counts v (ref 1));
  t.n <- t.n + 1;
  t.sum <- t.sum + v
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
