(** Per-page heat tracking on a virtual-clock epoch.

    Every demand fetch and eviction of a page bumps its counter; counters
    decay by halving once per elapsed [epoch_ns] of virtual time.  Decay
    is lazy — a counter is brought current ({e settled}) only when
    touched or read — so a touch costs O(1).  A read settles the counter
    it reads: the migrator's epoch reads every counter of its pages
    through {!fold}, so an epoch costs O(tracked counters).

    A counter is never dropped, not even once it has decayed to 0.  A
    read at a later [now] than the page's own clock (another tenant's,
    say) moves the counter's epoch ahead; a later touch at an earlier
    [now] then adds undecayed weight at that epoch.  Dropping the counter
    would forget that epoch and change every later read.

    Determinism: heat is a pure function of the (event, read,
    virtual-time) stream, so the same seeds produce the same heat and
    hence the same migration plans. *)

type t

val create : epoch_ns:int -> t
(** Raises [Invalid_argument] on a non-positive epoch. *)

val touch : t -> vpage:int -> weight:int -> now:int -> unit
(** Fold one access event of [weight] into [vpage]'s counter at virtual
    time [now] (decaying it first). *)

val heat : t -> vpage:int -> now:int -> int
(** [vpage]'s counter settled to [now]; 0 for untracked pages. *)

val fold :
  t -> now:int -> only:(int -> bool) -> (vpage:int -> heat:int -> 'a -> 'a) ->
  'a -> 'a
(** [fold t ~now ~only f init] settles to [now] every tracked counter
    whose page [only] accepts and folds [f] over them with their settled
    heat, 0 included, in unspecified order.  Counters [only] rejects are
    neither read nor settled.  No allocation per counter beyond what [f]
    does. *)

val touches : t -> int
(** Total events folded in. *)
