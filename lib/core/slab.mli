(** Slabs: the coarse allocation unit between compute nodes and the rack
    controller (§4.1).  A slab is a contiguous, page-aligned range of a
    memory node's store, mapped 1:1 onto a contiguous range of the
    application's VFMem address space. *)

type t = {
  id : int;
  node : int;  (** owning memory node id *)
  vaddr : int;  (** base VFMem (application) address *)
  remote_addr : int;  (** base offset within the node's store *)
  size : int;  (** bytes; page-aligned *)
}

val remote_of_vaddr : t -> vaddr:int -> int
(** Translate an application address inside this slab to the node-local
    offset.  Raises [Invalid_argument] if outside the slab. *)
