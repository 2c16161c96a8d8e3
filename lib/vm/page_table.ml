type protection = Read_only | Read_write

type pte = {
  mutable present : bool;
  mutable protection : protection;
  mutable dirty : bool;
  mutable accessed : bool;
}

type t = (int, pte) Hashtbl.t

let create () : t = Hashtbl.create 4096

let map t ~page ~protection =
  match Hashtbl.find_opt t page with
  | Some pte ->
      pte.present <- true;
      pte.protection <- protection
  | None ->
      Hashtbl.add t page { present = true; protection; dirty = false; accessed = false }

let unmap t ~page =
  match Hashtbl.find_opt t page with Some pte -> pte.present <- false | None -> ()

let lookup t ~page = Hashtbl.find_opt t page

let make_writable t ~page =
  match Hashtbl.find_opt t page with
  | Some pte -> pte.protection <- Read_write
  | None -> ()

let fault_kind t ~page ~write =
  match Hashtbl.find_opt t page with
  | None -> `Not_present
  | Some pte ->
      if not pte.present then `Not_present
      else if write && pte.protection = Read_only then `Protection
      else begin
        pte.accessed <- true;
        if write then pte.dirty <- true;
        `None
      end
