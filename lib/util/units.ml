let cache_line = 64
let page_size = 4096
let huge_page_size = 2 * 1024 * 1024
let lines_per_page = page_size / cache_line
let kib n = n * 1024
let mib n = n * 1024 * 1024
let us n = n * 1_000
let ms n = n * 1_000_000
let line_of_addr a = a lsr 6
let page_of_addr a = a lsr 12
let line_in_page a = (a lsr 6) land (lines_per_page - 1)

let align_down a ~alignment =
  assert (alignment > 0);
  a - (a mod alignment)

let align_up a ~alignment = align_down (a + alignment - 1) ~alignment
let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  assert (is_power_of_two n);
  let rec loop acc n = if n = 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let pp_scaled units factor fmt v =
  let rec pick v = function
    | [ last ] -> (v, last)
    | u :: rest -> if v < factor then (v, u) else pick (v /. factor) rest
    | [] -> assert false
  in
  let v, u = pick v units in
  if Float.is_integer v then Format.fprintf fmt "%.0f%s" v u
  else Format.fprintf fmt "%.1f%s" v u

let pp_bytes fmt n =
  pp_scaled [ "B"; "KiB"; "MiB"; "GiB"; "TiB" ] 1024. fmt (float_of_int n)

let pp_ns fmt n =
  pp_scaled [ "ns"; "us"; "ms"; "s" ] 1000. fmt (float_of_int n)
