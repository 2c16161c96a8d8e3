let magic = "KONATRACE1\000\000\000\000\000\000"
let record_bytes = 13

let writer ~path =
  let oc = open_out_bin path in
  output_string oc magic;
  let events = ref 0 in
  let buf = Bytes.create record_bytes in
  let sink (event : Access.t) =
    Bytes.set buf 0 (if Access.is_write event then '\001' else '\000');
    Bytes.set_int64_le buf 1 (Int64.of_int event.Access.addr);
    Bytes.set_int32_le buf 9 (Int32.of_int event.Access.len);
    output_bytes oc buf;
    incr events
  in
  let close () =
    close_out oc;
    !events
  in
  (sink, close)

let open_checked path =
  let ic = open_in_bin path in
  let header = really_input_string ic (String.length magic) in
  if header <> magic then begin
    close_in ic;
    failwith (Printf.sprintf "Trace_file: %s is not a kona trace" path)
  end;
  ic

let iter ~path sink =
  let ic = open_checked path in
  let buf = Bytes.create record_bytes in
  let events = ref 0 in
  (try
     while true do
       really_input ic buf 0 record_bytes;
       let kind = Bytes.get buf 0 in
       let addr = Int64.to_int (Bytes.get_int64_le buf 1) in
       let len = Int32.to_int (Bytes.get_int32_le buf 9) in
       (match kind with
       | '\000' -> sink (Access.read ~addr ~len)
       | '\001' -> sink (Access.write ~addr ~len)
       | c ->
           close_in ic;
           failwith (Printf.sprintf "Trace_file: bad record kind %#x" (Char.code c)));
       incr events
     done
   with End_of_file -> close_in ic);
  !events
