open Kona_util
module Tracer = Kona_telemetry.Tracer

type t = {
  log : Cl_log.t;
  rm : Resource_manager.t;
  read_local : addr:int -> len:int -> string;
  snoop : page:int -> half:int -> int;
  tracer : Tracer.t option;
  mutable pages_evicted : int;
  mutable clean_pages : int;
  mutable lines_evicted : int;
  mutable snooped_dirty_lines : int;
}

let create ?tracer ~log ~rm ~read_local ~snoop () =
  {
    log;
    rm;
    read_local;
    snoop;
    tracer;
    pages_evicted = 0;
    clean_pages = 0;
    lines_evicted = 0;
    snooped_dirty_lines = 0;
  }

let translate t ~vaddr =
  match Resource_manager.translate t.rm ~vaddr with
  | Some home -> home
  | None ->
      (* Every cached page came from a backed slab; an untranslatable line
         indicates runtime corruption. *)
      failwith (Printf.sprintf "Eviction_handler: no backing for %#x" vaddr)

(* Ship [lines] lines from [vaddr], which live at [raddr] on [node]. *)
let stage_run t ~node ~raddr ~vaddr ~lines =
  let data = t.read_local ~addr:vaddr ~len:(lines * Units.cache_line) in
  Cl_log.append_run t.log ~node ~raddr ~data;
  t.lines_evicted <- t.lines_evicted + lines

let half_len = Units.lines_per_page / 2

(* The number of trailing set bits of a mask below 2^32 (at most 32). *)
let trailing_ones mask = Bitmap.lowest_bit (lnot mask)

(* Contiguous dirty lines ship as single run entries (§2.2: dirty
   cache-line contiguity is paramount for network transfer).  The runs of
   a page's 64-line mask are cut out of its two halves, lowest first: a
   run that reaches line 31 goes on through the upper half's trailing set
   bits, which the upper half's own runs then leave out.  The page lives
   at [raddr] on [node], so line [l] lives at [raddr + 64 * l]. *)
let ship t ~vpage ~node ~raddr start lines =
  let off = start * Units.cache_line in
  stage_run t ~node ~raddr:(raddr + off) ~vaddr:((vpage * Units.page_size) + off) ~lines

(* [mask] without its bits below [stop]. *)
let above mask stop = mask land lnot ((1 lsl stop) - 1)

let rec upper_runs t ~vpage ~node ~raddr mask =
  if mask <> 0 then begin
    let start = Bitmap.lowest_bit mask in
    let lines = trailing_ones (mask lsr start) in
    ship t ~vpage ~node ~raddr (half_len + start) lines;
    upper_runs t ~vpage ~node ~raddr (above mask (start + lines))
  end

let rec lower_runs t ~vpage ~node ~raddr ~hi mask =
  if mask = 0 then upper_runs t ~vpage ~node ~raddr hi
  else begin
    let start = Bitmap.lowest_bit mask in
    let lines = trailing_ones (mask lsr start) in
    if start + lines < half_len then begin
      ship t ~vpage ~node ~raddr start lines;
      lower_runs t ~vpage ~node ~raddr ~hi (above mask (start + lines))
    end
    else begin
      let more = trailing_ones hi in
      ship t ~vpage ~node ~raddr start (lines + more);
      upper_runs t ~vpage ~node ~raddr (above hi more)
    end
  end

let evict t ~vpage ~dirty_lo ~dirty_hi =
  let began = Clock.now (Cl_log.clock t.log) in
  (* Snoop: lines of this page still modified inside CPU caches have not
     been written back yet; recall them and fold into the mask. *)
  let snooped_lo = t.snoop ~page:vpage ~half:0 in
  let snooped_hi = t.snoop ~page:vpage ~half:1 in
  t.snooped_dirty_lines <-
    t.snooped_dirty_lines + Bitmap.popcount snooped_lo + Bitmap.popcount snooped_hi;
  let lo = dirty_lo lor snooped_lo and hi = dirty_hi lor snooped_hi in
  Cl_log.note_bitmap_scan t.log ~lines:Units.lines_per_page;
  let dirty_count = Bitmap.popcount lo + Bitmap.popcount hi in
  if dirty_count = 0 then t.clean_pages <- t.clean_pages + 1
  else begin
    let node, raddr = translate t ~vaddr:(vpage * Units.page_size) in
    lower_runs t ~vpage ~node ~raddr ~hi lo
  end;
  t.pages_evicted <- t.pages_evicted + 1;
  (match t.tracer with
  | Some tr ->
      Tracer.span tr "evict.page"
        ~dur_ns:(Clock.now (Cl_log.clock t.log) - began)
        ~args:[ ("vpage", vpage); ("dirty_lines", dirty_count) ]
  | None -> ());
  dirty_count > 0

let write_line_through t ~line_addr =
  let node, raddr = translate t ~vaddr:line_addr in
  stage_run t ~node ~raddr ~vaddr:line_addr ~lines:1;
  Cl_log.flush t.log;
  match t.tracer with
  | Some tr -> Tracer.instant tr "evict.orphan_write_through" ~args:[ ("addr", line_addr) ]
  | None -> ()

let pages_evicted t = t.pages_evicted
let clean_pages t = t.clean_pages
let lines_evicted t = t.lines_evicted
let snooped_dirty_lines t = t.snooped_dirty_lines
