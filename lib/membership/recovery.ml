(* Interruptible recovery: a FIFO queue of named resumable tasks.

   Failover, re-replication and drain each enqueue a task whose [step]
   does one bounded unit of work and reports [`Again] or [`Done].  The
   engine pumps the head task from its own step loop, so a second crash
   or partition arriving mid-recovery simply interleaves: the in-flight
   task keeps stepping against the new world (its step function re-reads
   live state each call) — nothing raises from half-finished recovery.
   [cancel] and [cancel_named] remove queued tasks, but no fault handler
   calls them yet. *)

type task = { name : string; seq : int; step : now:int -> [ `Again | `Done ] }

type t = {
  mutable queue : task list; (* head = in-flight task *)
  mutable next_seq : int;
  mutable enqueued : int;
  mutable completed : int;
  mutable cancelled : int;
  mutable steps : int;
}

let create () =
  { queue = []; next_seq = 0; enqueued = 0; completed = 0; cancelled = 0; steps = 0 }

let enqueue t ~name step =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.enqueued <- t.enqueued + 1;
  t.queue <- t.queue @ [ { name; seq; step } ];
  seq

let cancel t ~handle =
  let before = List.length t.queue in
  t.queue <- List.filter (fun task -> task.seq <> handle) t.queue;
  if List.length t.queue < before then begin
    t.cancelled <- t.cancelled + 1;
    true
  end
  else false

let cancel_named t ~name =
  let matches, rest = List.partition (fun task -> task.name = name) t.queue in
  t.queue <- rest;
  t.cancelled <- t.cancelled + List.length matches;
  List.length matches

let step t ~now =
  match t.queue with
  | [] -> `Idle
  | task :: _ -> (
      t.steps <- t.steps + 1;
      match task.step ~now with
      | `Again -> `Stepped task.name
      | `Done ->
          (* Filter by seq rather than dropping the captured tail: the
             step may itself have enqueued follow-up work (failover
             queues re-replication from inside its own step), and a
             stale tail would silently discard it. *)
          t.queue <- List.filter (fun x -> x.seq <> task.seq) t.queue;
          t.completed <- t.completed + 1;
          `Finished task.name)

(* A runtime's clock moves while its tasks post work; a rack's final pump
   holds one time. *)
let rec run_to_idle t ~now =
  match step t ~now:(now ()) with
  | `Idle -> ()
  | `Stepped _ | `Finished _ -> run_to_idle t ~now

let pending t = List.map (fun task -> task.name) t.queue
let enqueued t = t.enqueued
let completed t = t.completed
let cancelled t = t.cancelled
let steps t = t.steps
