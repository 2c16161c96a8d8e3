type t = { id : int; node : int; vaddr : int; remote_addr : int; size : int }

let contains t ~addr = addr >= t.vaddr && addr < t.vaddr + t.size

let remote_of_vaddr t ~vaddr =
  if not (contains t ~addr:vaddr) then
    invalid_arg (Printf.sprintf "Slab.remote_of_vaddr: %#x outside slab %d" vaddr t.id);
  t.remote_addr + (vaddr - t.vaddr)

