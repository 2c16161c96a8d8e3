open Kona_util

type window_stats = {
  window : int;
  written_bytes : int;
  dirty_line_bytes : int;
  dirty_page_bytes : int;
  dirty_huge_bytes : int;
}

let ratio granule_bytes written =
  if written = 0 then 0. else float_of_int granule_bytes /. float_of_int written

type t = {
  (* page index -> byte-exact write mask for the current window *)
  pages : (int, Bitmap.t) Hashtbl.t;
  mutable closed : window_stats list; (* newest first *)
}

let create () = { pages = Hashtbl.create 1024; closed = [] }

let page_mask t page =
  match Hashtbl.find_opt t.pages page with
  | Some mask -> mask
  | None ->
      let mask = Bitmap.create Units.page_size in
      Hashtbl.add t.pages page mask;
      mask

let sink t event =
  if Access.is_write event then begin
    (* Split the write at page boundaries and set byte bits. *)
    let rec mark addr remaining =
      if remaining > 0 then begin
        let page = Units.page_of_addr addr in
        let offset = addr land (Units.page_size - 1) in
        let len = min remaining (Units.page_size - offset) in
        Bitmap.set_range (page_mask t page) offset len;
        mark (addr + len) (remaining - len)
      end
    in
    mark event.Access.addr event.Access.len
  end

let close_window t ~window =
  let written = ref 0 in
  let lines = ref 0 in
  let pages = ref 0 in
  let huges = Hashtbl.create 16 in
  Hashtbl.iter
    (fun page mask ->
      incr pages;
      Hashtbl.replace huges (page lsr 9) ();
      written := !written + Bitmap.count mask;
      (* A cache-line granule is dirty iff any of its 64 bytes is set. *)
      let line_dirty = Array.make Units.lines_per_page false in
      Bitmap.iter_set mask (fun byte -> line_dirty.(byte lsr 6) <- true);
      Array.iter (fun d -> if d then incr lines) line_dirty)
    t.pages;
  let stats =
    {
      window;
      written_bytes = !written;
      dirty_line_bytes = !lines * Units.cache_line;
      dirty_page_bytes = !pages * Units.page_size;
      dirty_huge_bytes = Hashtbl.length huges * Units.huge_page_size;
    }
  in
  t.closed <- stats :: t.closed;
  Hashtbl.reset t.pages

type aggregate = {
  total_written_bytes : int;
  agg_amp_line : float;
  agg_amp_page : float;
  agg_amp_huge : float;
}

let windows t = List.rev t.closed

let aggregate ?(drop_last = false) t =
  let ws = windows t in
  let ws =
    if drop_last then match List.rev ws with [] -> [] | _ :: rest -> List.rev rest
    else ws
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 ws in
  let written = sum (fun w -> w.written_bytes) in
  {
    total_written_bytes = written;
    agg_amp_line = ratio (sum (fun w -> w.dirty_line_bytes)) written;
    agg_amp_page = ratio (sum (fun w -> w.dirty_page_bytes)) written;
    agg_amp_huge = ratio (sum (fun w -> w.dirty_huge_bytes)) written;
  }
