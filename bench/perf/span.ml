(* Host-time spans for the traced pass, recorded by the benchmark around
   its calls into each layer (nothing inside lib/ is instrumented).

   The buffer is preallocated: recording a span writes four array slots
   and allocates nothing, so the sampled per-access spans disturb the
   replay they measure as little as possible.  Spans past the capacity
   (far more than one traced child records) are not recorded. *)

let capacity = 1 lsl 18
let names = Array.make capacity ""
let starts = Array.make capacity 0
let stops = Array.make capacity 0
let parents = Array.make capacity (-1)
let count = ref 0
let current = ref (-1)

(* Spans are recorded only in the traced pass; end-to-end metrics come from
   untraced reps, where [enter]/[leave] do nothing. *)
let enabled = ref false
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enter name =
  let i = !count in
  if (not !enabled) || i >= capacity then -1
  else begin
    names.(i) <- name;
    starts.(i) <- now_ns ();
    stops.(i) <- -1;
    parents.(i) <- !current;
    count := i + 1;
    current := i;
    i
  end

let leave i =
  if i >= 0 then begin
    stops.(i) <- now_ns ();
    current := parents.(i)
  end

let with_ name f =
  let s = enter name in
  match f () with
  | v ->
      leave s;
      v
  | exception e ->
      leave s;
      raise e

(* A leaf span timed by the caller (the sampled [runtime.sink] calls). *)
let record name ~start ~stop =
  let i = !count in
  if !enabled && i < capacity then begin
    names.(i) <- name;
    starts.(i) <- start;
    stops.(i) <- stop;
    parents.(i) <- !current;
    count := i + 1
  end

let durations name =
  let acc = ref [] in
  for i = !count - 1 downto 0 do
    if names.(i) = name && stops.(i) >= 0 then
      acc := (stops.(i) - starts.(i)) :: !acc
  done;
  !acc

(* Self time: a span's duration minus the part of it its children cover
   (children may overlap: a sampled sink call lies inside its slice). *)
let self_ns () =
  let n = !count in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = parents.(i) in
    if p >= 0 && stops.(i) >= 0 then kids.(p) <- (starts.(i), stops.(i)) :: kids.(p)
  done;
  Array.init n (fun i ->
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (s, e) ->
            let s = max s reach in
            if e > s then (acc + e - s, e) else (acc, reach))
          (0, min_int)
          (List.sort compare kids.(i))
      in
      stops.(i) - starts.(i) - covered)

(* Chrome trace-event objects (complete "X" events, microseconds), one per
   line and comma-separated, for the parent to splice into one
   [traceEvents] array.  [pid] identifies the workload, [tid] the rep. *)
let write_events oc ~pid ~tid ~label =
  Printf.fprintf oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
     \"args\":{\"name\":%S}}"
    pid tid label;
  let self = self_ns () in
  let origin = if !count > 0 then starts.(0) else 0 in
  for i = 0 to !count - 1 do
    if stops.(i) >= 0 then
      Printf.fprintf oc
        ",\n{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\
         \"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}"
        names.(i)
        (float_of_int (starts.(i) - origin) /. 1e3)
        (float_of_int (stops.(i) - starts.(i)) /. 1e3)
        pid tid i parents.(i)
        (float_of_int self.(i) /. 1e3)
  done
