(** Dirty-data amplification measurement (paper §2.1, Table 2, Fig. 9).

    Amplification at a tracking granularity is the ratio of bytes marked
    dirty (number of touched granules times granule size) to the number of
    bytes actually written by the application, measured per window.  The
    written-byte count is byte-exact and de-duplicated within a window:
    writing the same byte twice in one window counts once, exactly as a
    dirty-tracking mechanism would observe. *)

type window_stats = {
  window : int;
  written_bytes : int;  (** unique bytes written in the window *)
  dirty_line_bytes : int;  (** 64B-granule dirty footprint *)
  dirty_page_bytes : int;  (** 4KB-granule dirty footprint *)
  dirty_huge_bytes : int;  (** 2MB-granule dirty footprint *)
}

type t

val create : unit -> t

val sink : t -> Access.sink
(** Feed the access stream; reads are ignored. *)

val close_window : t -> window:int -> unit
(** Snapshot the current window's statistics and reset for the next window.
    Windows that saw no writes are recorded with all-zero fields.
    Typically wired to {!Window.create}'s [on_boundary]. *)

type aggregate = {
  total_written_bytes : int;
  agg_amp_line : float;
  agg_amp_page : float;
  agg_amp_huge : float;
}

val windows : t -> window_stats list
(** Closed windows, oldest first. *)

val aggregate : ?drop_last:bool -> t -> aggregate
(** Whole-run amplification: summed granule bytes over summed written bytes.
    [drop_last] (default [false]) excludes the final window, as the paper
    does to avoid skew from process tear-down writes (§6.3). *)
