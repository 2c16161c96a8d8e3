let nbuckets = 63 (* bucket b holds samples in [2^(b-1), 2^b), bucket 0 = {0} *)

type t = {
  counts : int array;
  mutable n : int;
  mutable total : float;
}

let create () = { counts = Array.make nbuckets 0; n = 0; total = 0. }

let bucket_of sample =
  if sample <= 0 then 0
  else
    let rec loop b v = if v = 0 then b else loop (b + 1) (v lsr 1) in
    min (nbuckets - 1) (loop 0 sample)

let add t sample =
  if sample < 0 then invalid_arg "Histogram.add: negative sample";
  let b = bucket_of sample in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.total <- t.total +. float_of_int sample

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then 0. else t.total /. float_of_int t.n
let upper_bound b = if b = 0 then 0 else 1 lsl b

let copy t = { counts = Array.copy t.counts; n = t.n; total = t.total }

let percentile t p =
  if p <= 0. || p > 100. then invalid_arg "Histogram.percentile: p outside (0,100]";
  if t.n = 0 then 0
  else begin
    let target = p /. 100. *. float_of_int t.n in
    let acc = ref 0 in
    let result = ref (upper_bound (nbuckets - 1)) in
    (try
       for b = 0 to nbuckets - 1 do
         acc := !acc + t.counts.(b);
         if float_of_int !acc >= target then begin
           result := upper_bound b;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let buckets t =
  let out = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.counts.(b) > 0 then
      out := ((if b = 0 then 0 else 1 lsl (b - 1)), t.counts.(b)) :: !out
  done;
  !out

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.0f p50<=%d p99<=%d" t.n (mean t)
    (if t.n = 0 then 0 else percentile t 50.)
    (if t.n = 0 then 0 else percentile t 99.)
