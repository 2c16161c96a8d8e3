(* Order statistics over per-rep samples.  Quartiles follow Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method), so
   numbers printed here match the spreads a script computes from the same
   values. *)

type t = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let of_list xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

(* Quartile distance as a share of the median: the run-to-run spread. *)
let spread s =
  if s.median = 0. then if s.q3 = s.q1 then 0. else infinity
  else Float.abs (s.q3 -. s.q1) /. Float.abs s.median
