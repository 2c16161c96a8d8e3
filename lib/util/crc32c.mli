(** CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
    the checksum used by iSCSI, ext4 and Btrfs metadata, and here for
    per-cache-line integrity of FMem pages and CL-log entries.  A CRC
    detects any single-bit error in its input, so every injected
    [bit-flip] fault is guaranteed-detectable by construction.

    Slicing-by-8 software kernel: each step reads eight bytes as one
    little-endian word and folds them through eight 256-entry tables
    (16 KiB, built at module initialisation); a bytewise tail handles
    the last [len mod 8] bytes.  Pure OCaml, no external dependencies. *)

val digest_sub : string -> pos:int -> len:int -> int
(** CRC32C of a substring (initial value 0xFFFFFFFF, final xor
    0xFFFFFFFF, i.e. the standard reflected CRC32C of RFC 3720).  Result
    fits in 32 bits.  Raises [Invalid_argument] when out of range. *)

val digest_bytes : Bytes.t -> pos:int -> len:int -> int
(** CRC32C of a byte-buffer slice, without copying. Raises
    [Invalid_argument] when out of range. *)
