open Kona_util
module Access = Kona_trace.Access

type t = {
  mem : Bytes.t;
  base : int;
  mutable brk : int;
  free_lists : (int, int list ref) Hashtbl.t; (* block size -> addresses *)
  poked_pages : (int, unit) Hashtbl.t; (* file-backed (uninstrumented) data *)
  sink : Access.sink;
}

let create ?(capacity = Units.mib 64) ~sink () =
  assert (capacity > 2 * Units.page_size);
  {
    mem = Bytes.make capacity '\000';
    base = Units.page_size;
    brk = Units.page_size;
    free_lists = Hashtbl.create 32;
    poked_pages = Hashtbl.create 256;
    sink;
  }

let capacity t = Bytes.length t.mem
let used t = t.brk - t.base

let check t addr len =
  if addr < t.base || addr + len > Bytes.length t.mem then
    invalid_arg
      (Printf.sprintf "Heap: access [%#x,+%d) outside arena [%#x,%#x)" addr len t.base
         (Bytes.length t.mem))

let alloc t ?(align = 8) n =
  if n <= 0 then invalid_arg "Heap.alloc: size must be positive";
  let size = Units.align_up n ~alignment:align in
  match Hashtbl.find_opt t.free_lists size with
  | Some ({ contents = addr :: rest } as cell) when addr mod align = 0 ->
      cell := rest;
      addr
  | _ ->
      let addr = Units.align_up t.brk ~alignment:align in
      if addr + size > Bytes.length t.mem then raise Out_of_memory;
      t.brk <- addr + size;
      addr

let free t ~addr ~len =
  let size = Units.align_up len ~alignment:8 in
  match Hashtbl.find_opt t.free_lists size with
  | Some cell -> cell := addr :: !cell
  | None -> Hashtbl.add t.free_lists size (ref [ addr ])

let emit t kind addr len =
  check t addr len;
  t.sink
    (match kind with
    | Access.Read -> Access.read ~addr ~len
    | Access.Write -> Access.write ~addr ~len)

let read_u32 t addr =
  emit t Access.Read addr 4;
  Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xffffffff

let write_u32 t addr v =
  emit t Access.Write addr 4;
  Bytes.set_int32_le t.mem addr (Int32.of_int v)

let read_u64 t addr =
  emit t Access.Read addr 8;
  Int64.to_int (Bytes.get_int64_le t.mem addr)

let write_u64 t addr v =
  emit t Access.Write addr 8;
  Bytes.set_int64_le t.mem addr (Int64.of_int v)

let read_f64 t addr =
  emit t Access.Read addr 8;
  Int64.float_of_bits (Bytes.get_int64_le t.mem addr)

let write_f64 t addr v =
  emit t Access.Write addr 8;
  Bytes.set_int64_le t.mem addr (Int64.bits_of_float v)

let read_bytes t addr len =
  emit t Access.Read addr len;
  Bytes.sub_string t.mem addr len

let write_string t addr s =
  let len = String.length s in
  emit t Access.Write addr len;
  Bytes.blit_string s 0 t.mem addr len

let memcmp t addr s =
  let len = String.length s in
  emit t Access.Read addr len;
  Bytes.sub_string t.mem addr len = s

let note_poked t addr len =
  for page = Units.page_of_addr addr to Units.page_of_addr (addr + len - 1) do
    Hashtbl.replace t.poked_pages page ()
  done

let poke_f64 t addr v =
  check t addr 8;
  note_poked t addr 8;
  Bytes.set_int64_le t.mem addr (Int64.bits_of_float v)

let page_poked t ~page = Hashtbl.mem t.poked_pages page

let restore_page t ~addr ~data =
  if String.length data <> Units.page_size || addr mod Units.page_size <> 0 then
    invalid_arg "Heap.restore_page: need a page-aligned, page-sized blit";
  if addr + Units.page_size > Bytes.length t.mem then
    invalid_arg "Heap.restore_page: outside the arena";
  Bytes.blit_string data 0 t.mem addr Units.page_size

let peek_u64 t addr = Int64.to_int (Bytes.get_int64_le t.mem addr)
let peek_bytes t addr len = Bytes.sub_string t.mem addr len
let snapshot t = Bytes.copy t.mem
