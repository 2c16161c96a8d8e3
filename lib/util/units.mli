(** Memory- and time-unit constants and pretty-printers shared by the whole
    simulator.  Addresses, sizes and times are plain [int]s: bytes for
    sizes/addresses, nanoseconds for times.  On a 64-bit platform this gives
    62 usable bits, plenty for both. *)

val cache_line : int
(** Bytes per cache-line (64). *)

val page_size : int
(** Bytes per base page (4096). *)

val huge_page_size : int
(** Bytes per 2 MiB huge page. *)

val lines_per_page : int
(** Cache-lines per base page (64). *)

val kib : int -> int
val mib : int -> int

val us : int -> int
(** Microseconds to nanoseconds. *)

val ms : int -> int
(** Milliseconds to nanoseconds. *)

val line_of_addr : int -> int
(** Cache-line index of a byte address (address / 64). *)

val page_of_addr : int -> int
(** Base-page index of a byte address. *)

val line_in_page : int -> int
(** Cache-line offset within its page, in [0, 63]. *)

val align_down : int -> alignment:int -> int
val align_up : int -> alignment:int -> int

val is_power_of_two : int -> bool

val log2 : int -> int
(** [log2 n] for positive power-of-two [n]. *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable byte count ("4.0KiB", "1.5GiB", ...). *)

val pp_ns : Format.formatter -> int -> unit
(** Human-readable duration ("250ns", "3.0us", "1.2ms", ...). *)
