(** Interruptible recovery: a FIFO queue of named resumable tasks.

    Failover, re-replication and drain enqueue tasks whose [step] does
    one bounded unit of work and reports [`Again] or [`Done].  The
    engine pumps the head task from its own step loop; a second fault
    arriving mid-recovery interleaves instead of raising — the task's
    step function re-reads live state each call.  No fault handler
    cancels a task yet ({!cancel}). *)

type t

val create : unit -> t

val enqueue : t -> name:string -> (now:int -> [ `Again | `Done ]) -> int
(** Append a task; returns a handle usable with {!cancel}. *)

val cancel : t -> handle:int -> bool
(** Remove a queued task by handle; [false] if already finished. *)

val cancel_named : t -> name:string -> int
(** Remove every queued task with this name; returns how many. *)

val step : t -> now:int -> [ `Idle | `Stepped of string | `Finished of string ]
(** Advance the head task one unit.  [`Idle] when the queue is empty;
    [`Stepped name] when it made progress and remains in flight;
    [`Finished name] when it completed and was dequeued. *)

val run_to_idle : t -> now:(unit -> int) -> unit
(** {!step} until {!idle}, reading [now ()] before each step, so work a
    task enqueues (failover queues re-replication) runs too. *)

val pending : t -> string list
(** Names of queued tasks, head first. *)

val enqueued : t -> int
val completed : t -> int
val cancelled : t -> int
val steps : t -> int
