(** The Eviction Handler: given an FMem victim page, snoops the CPU caches
    for still-resident dirty lines of that page (the FPGA only learns of
    modifications at writeback, §4.4), merges them with the frame's dirty
    bitmap, and stages exactly the dirty cache-lines into the CL log.
    Clean pages are dropped silently.

    The frame's bitmap and the snoop's answer are both two 32-line ints,
    one per half page ({!Kona_coherence.Fmem.victim}).  The handler
    merges and counts them and cuts the runs of contiguous dirty lines
    with bit operations, without a [Bitmap] or a list, and translates the
    page once: each run's remote address is an offset into the page's.

    Runs on the background clock (the CL log's queue pair's clock): eviction
    is off the application's critical path unless the cache is full.  Log
    writes staged here are delivered completion-driven — the bytes reach
    the memory node when the background clock passes the write's completion
    time (driven by later posts, completion polls, or the fence), subject to
    the queue pair's send-window backpressure. *)

type t

val create :
  ?tracer:Kona_telemetry.Tracer.t ->
  log:Cl_log.t ->
  rm:Resource_manager.t ->
  read_local:(addr:int -> len:int -> string) ->
  snoop:(page:int -> half:int -> int) ->
  unit ->
  t
(** [read_local] reads the application's memory (the data to ship);
    [snoop ~page ~half] flushes half [half] (0 or 1) of one page out of
    the CPU hierarchy and returns the mask of its lines that were dirty
    there, as {!Kona_cachesim.Hierarchy.flush_page} does.  [tracer] receives an
    [evict.page] span per victim (duration on the background clock) and an
    instant per orphan write-through. *)

val evict : t -> vpage:int -> dirty_lo:int -> dirty_hi:int -> bool
(** Process one victim whose frame held the dirty lines [dirty_lo] (lines
    0-31) and [dirty_hi] (lines 32-63).  Returns [true] when the page
    shipped dirty lines (the frame's bitmap merged with lines snooped out
    of the CPU caches),
    [false] for a silently dropped clean page — the signal the rack layer
    uses to decide whether a shared-segment eviction must recall remote
    readers. *)

val write_line_through : t -> line_addr:int -> unit
(** Ship one orphan line immediately (dirty-tracker race path). *)

val pages_evicted : t -> int
val clean_pages : t -> int
val lines_evicted : t -> int
val snooped_dirty_lines : t -> int
