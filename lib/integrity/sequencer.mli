(** Epoch + per-stream sequence numbers for CL-log deliveries.

    Every CL-log shipment to a destination node carries a
    [(stream, epoch, seq)] stamp: [stream] identifies the sender's
    per-destination ordering domain (one per logical node id), [seq]
    increments by one per shipment on that stream, and [epoch] is the
    rack-global fencing epoch, which rises on reconfiguration (failover)
    and invalidates any stragglers from the previous epoch.  The receiver
    tracks the last stamp seen per stream and classifies each delivery
    instead of applying blindly. *)

module Tx : sig
  type t

  val create : unit -> t

  val epoch : t -> int
  (** The newest epoch handed to {!next} (0 before the first). *)

  val next : t -> epoch:int -> stream:int -> int
  (** Allocate the next sequence number on [stream] (0, 1, 2, ...) for a
      shipment stamped [epoch].  An epoch above {!epoch} first restarts
      every stream's counter at 0; the sender reads the epoch from its
      rack controller at each shipment, so a failover anywhere in the
      rack reaches every sender at its next shipment.  An epoch at or
      below {!epoch} restarts nothing. *)
end

module Rx : sig
  type t

  type verdict =
    | Ok  (** next-in-order (or first ever seen on this stream) *)
    | Gap of int  (** [n] shipments were skipped before this one *)
    | Duplicate  (** seq at or below the last applied — replay *)
    | Stale_epoch  (** from an epoch older than the newest seen *)

  val create : unit -> t

  val observe : t -> stream:int -> epoch:int -> seq:int -> verdict
  (** Classify a delivery and advance the stream state.  A newer epoch
      always resets the stream (first shipment of an epoch is [Ok] even
      if its seq restarts at 0); an unknown stream adopts whatever seq
      it first sees, so a freshly re-replicated mirror joining
      mid-stream does not report a spurious gap.  [Gap] advances the
      cursor past the missing range (the gap is reported exactly once). *)

  val pp_verdict : Format.formatter -> verdict -> unit
end
