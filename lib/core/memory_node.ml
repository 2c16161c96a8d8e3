open Kona_util
open Kona_integrity

exception Crashed of int
exception Fenced of int

(* One page of the store and the CRC table of its 64 lines.  A page
   exists only once a write, a log line or a bit flip has landed in it;
   an absent page reads as zeros and has no recorded line. *)
type page = { bytes : Bytes.t; chk : Checksums.t }

type t = {
  node_id : int;
  capacity : int;
  pages : page option array; (* one slot per (possibly partial) page *)
  seq_rx : Sequencer.Rx.t;
  mutable brk : int;
  mutable is_alive : bool;
  (* Fencing (split-brain prevention): once a store is displaced by a
     membership-triggered failover it carries the fencing epoch that
     displaced it.  Shipments stamped with an older epoch are stale
     writes from the pre-failover configuration and are rejected whole;
     the trusted write path refuses outright. *)
  mutable fence : int option;
  mutable fenced_rejects : int;
  mutable post_fence_writes : int;
  mutable lines_received : int;
  mutable logs_received : int;
}

let create ~id ~capacity =
  if capacity <= 0 || capacity mod Units.cache_line <> 0 then
    invalid_arg "Memory_node.create: capacity must be a positive multiple of 64";
  {
    node_id = id;
    capacity;
    pages = Array.make ((capacity + Units.page_size - 1) / Units.page_size) None;
    seq_rx = Sequencer.Rx.create ();
    brk = 0;
    is_alive = true;
    fence = None;
    fenced_rejects = 0;
    post_fence_writes = 0;
    lines_received = 0;
    logs_received = 0;
  }

let id t = t.node_id
let capacity t = t.capacity
let used t = t.brk
let free_bytes t = capacity t - t.brk
let alive t = t.is_alive
let crash t = t.is_alive <- false

let set_fence t ~epoch =
  match t.fence with
  | Some e when e >= epoch -> ()
  | _ -> t.fence <- Some epoch

let fenced t = t.fence <> None
let fenced_rejects t = t.fenced_rejects
let post_fence_writes t = t.post_fence_writes

let check_alive t = if not t.is_alive then raise (Crashed t.node_id)
let check_fence t = match t.fence with Some _ -> raise (Fenced t.node_id) | None -> ()

let reserve t ~size =
  check_alive t;
  let size = Units.align_up size ~alignment:Units.page_size in
  if t.brk + size > capacity t then raise Out_of_memory;
  let addr = t.brk in
  t.brk <- t.brk + size;
  addr

let adopt_reservations t ~brk =
  if brk < 0 || brk > capacity t then
    invalid_arg
      (Printf.sprintf "Memory_node %d: adopt_reservations brk %d outside [0,%d]"
         t.node_id brk (capacity t));
  t.brk <- max t.brk brk

let check t addr len =
  check_alive t;
  if addr < 0 || addr + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Memory_node %d: access [%#x,+%d) out of range" t.node_id addr len)

let page_mask = Units.page_size - 1

(* [f i off pos n] for each page [i] that [addr, addr+len) overlaps: the
   [n] bytes at offset [off] of the page are bytes [pos, pos+n) of the
   range. *)
let iter_pages ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (Units.page_size - off) in
    f (Units.page_of_addr a) off !pos n;
    pos := !pos + n
  done

(* Page [i], allocated zero-filled and unrecorded on first touch.  A
   partial last page is allocated whole; [check] keeps accesses below
   [capacity]. *)
let touch t i =
  match t.pages.(i) with
  | Some p -> p
  | None ->
      let p =
        {
          bytes = Bytes.make Units.page_size '\000';
          chk = Checksums.create ~capacity:Units.page_size;
        }
      in
      t.pages.(i) <- Some p;
      p

let write t ~addr ~data =
  let len = String.length data in
  check t addr len;
  check_fence t;
  iter_pages ~addr ~len (fun i off pos n ->
      let p = touch t i in
      Bytes.blit_string data pos p.bytes off n;
      Checksums.record p.chk ~store:p.bytes ~addr:off ~len:n)

let read t ~addr ~len =
  check t addr len;
  let out = Bytes.create len in
  iter_pages ~addr ~len (fun i off pos n ->
      match t.pages.(i) with
      | Some p -> Bytes.blit p.bytes off out pos n
      | None -> Bytes.fill out pos n '\000');
  Bytes.unsafe_to_string out

type log_entry = { addr : int; data : string; crcs : int array }

let entry ~addr ~data =
  let len = String.length data in
  assert (len > 0 && len mod Units.cache_line = 0);
  assert (addr mod Units.cache_line = 0);
  let crcs =
    Array.init (len / Units.cache_line) (fun i ->
        Crc32c.digest_sub data ~pos:(i * Units.cache_line) ~len:Units.cache_line)
  in
  { addr; data; crcs }

type delivery = { stream : int; epoch : int; seq : int }

type report = {
  verdict : Sequencer.Rx.verdict;
  applied_lines : int;
  rejected : int list;
  healed : int list;
}

let receive_log ?delivery t entries =
  check_alive t;
  t.logs_received <- t.logs_received + 1;
  (* The fence check comes before sequence observation: a rejected stale
     shipment must not perturb the receiver's per-stream cursors.  An
     unstamped shipment carries no epoch proof, so a fenced store rejects
    it too. *)
  let fence_rejected =
    match (t.fence, delivery) with
    | Some fence_epoch, Some { epoch; _ } -> epoch < fence_epoch
    | Some _, None -> true
    | None, _ -> false
  in
  if fence_rejected then begin
    t.fenced_rejects <- t.fenced_rejects + 1;
    { verdict = Sequencer.Rx.Stale_epoch; applied_lines = 0; rejected = []; healed = [] }
  end
  else begin
  (* A shipment at or above the fencing epoch reaching a fenced store is
     structurally a post-fence write — it is applied below (dropping
     bytes silently would be worse) but counted, so the
     no-post-fence-write invariant trips. *)
  let verdict =
    match delivery with
    | None -> Sequencer.Rx.Ok
    | Some { stream; epoch; seq } -> Sequencer.Rx.observe t.seq_rx ~stream ~epoch ~seq
  in
  match verdict with
  | Sequencer.Rx.Duplicate | Sequencer.Rx.Stale_epoch ->
      (* Replays and stragglers from a previous configuration are
         dropped whole: applying them would roll lines backwards. *)
      { verdict; applied_lines = 0; rejected = []; healed = [] }
  | Sequencer.Rx.Ok | Sequencer.Rx.Gap _ ->
      let applied = ref 0 and rejected = ref [] and healed = ref [] in
      List.iter
        (fun e ->
          let len = String.length e.data in
          assert (len > 0 && len mod Units.cache_line = 0);
          assert (e.addr mod Units.cache_line = 0);
          let nlines = len / Units.cache_line in
          assert (Array.length e.crcs = nlines);
          for i = 0 to nlines - 1 do
            let addr = e.addr + (i * Units.cache_line) in
            let wire =
              Crc32c.digest_sub e.data ~pos:(i * Units.cache_line)
                ~len:Units.cache_line
            in
            if wire <> e.crcs.(i) then rejected := addr :: !rejected
            else begin
              check t addr Units.cache_line;
              let p = touch t (Units.page_of_addr addr) in
              let off = addr land page_mask in
              let line = off / Units.cache_line in
              if
                Checksums.recorded p.chk ~line
                && not (Checksums.line_ok p.chk ~store:p.bytes ~line)
              then healed := addr :: !healed;
              Bytes.blit_string e.data (i * Units.cache_line) p.bytes off
                Units.cache_line;
              Checksums.set_line p.chk ~line ~crc:wire;
              incr applied
            end
          done;
          t.lines_received <- t.lines_received + nlines)
        entries;
      if t.fence <> None then
        t.post_fence_writes <- t.post_fence_writes + !applied;
      {
        verdict;
        applied_lines = !applied;
        rejected = List.rev !rejected;
        healed = List.rev !healed;
      }
  end

let lines_received t = t.lines_received
let logs_received t = t.logs_received
let peek = read

let verify_range t ~addr ~len =
  if len <= 0 then []
  else begin
    if addr < 0 || addr + len > t.capacity then
      invalid_arg "Memory_node.verify_range";
    let acc = ref [] in
    iter_pages ~addr ~len (fun i off _ n ->
        match t.pages.(i) with
        | None -> ()
        | Some p ->
            List.iter
              (fun l -> acc := ((i * Units.page_size) + l) :: !acc)
              (Checksums.corrupt_lines p.chk ~store:p.bytes ~addr:off ~len:n));
    List.rev !acc
  end

let corrupt_bit t ~addr ~bit =
  if addr < 0 || addr >= t.capacity || addr mod Units.cache_line <> 0 then
    invalid_arg "Memory_node.corrupt_bit: addr";
  if bit < 0 || bit >= Units.cache_line * 8 then
    invalid_arg "Memory_node.corrupt_bit: bit";
  let p = touch t (Units.page_of_addr addr) in
  let off = addr land page_mask in
  let line = off / Units.cache_line in
  let was_clean =
    Checksums.recorded p.chk ~line && Checksums.line_ok p.chk ~store:p.bytes ~line
  in
  let byte = off + (bit / 8) in
  Bytes.set p.bytes byte
    (Char.chr (Char.code (Bytes.get p.bytes byte) lxor (1 lsl (bit land 7))));
  if was_clean then `Fresh else `Already_corrupt
