(** Per-process page table over 4KB pages.

    This is the mechanism the virtual-memory-based baselines (Kona-VM,
    Infiniswap-like, LegoOS-like) use for all three remote-memory
    operations; Kona itself keeps pages permanently present in VFMem and
    only uses the table for translation (§4.4). *)

type protection = Read_only | Read_write

type pte = {
  mutable present : bool;
  mutable protection : protection;
  mutable dirty : bool;
  mutable accessed : bool;
}

type t

val create : unit -> t

val map : t -> page:int -> protection:protection -> unit
(** Install (or overwrite) a present mapping. *)

val unmap : t -> page:int -> unit
(** Mark not-present (keeps the entry so flags can be inspected). *)

val lookup : t -> page:int -> pte option
(** The entry, present or not; [None] if never mapped. *)

val write_protect : t -> page:int -> unit
(** Downgrade to read-only (no-op if unmapped).  The caller is responsible
    for the corresponding TLB invalidation. *)

val make_writable : t -> page:int -> unit

val fault_kind :
  t -> page:int -> write:bool -> [ `None | `Not_present | `Protection ]
(** What a hardware access would raise: [`Not_present] (major/remote
    fault), [`Protection] (write to a read-only page), or [`None].  Updates
    accessed/dirty bits exactly when the access would succeed. *)

val mapped_count : t -> int
val present_count : t -> int
