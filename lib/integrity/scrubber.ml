type outcome = Clean | Repaired of int | Unrepairable of int

(* Pages checked per [tick] once a sweep is due: bounds the
   background-clock burst of one poll. *)
let budget = 8

type t = {
  interval_ns : int;
  scan : unit -> int array;
  check : page:int -> outcome;
  mutable next_due : int; (* virtual time the next sweep may start *)
  mutable worklist : int array; (* pages of the in-flight sweep *)
  mutable cursor : int; (* next index into [worklist] *)
  mutable pages_scrubbed : int;
  mutable repairs : int;
  mutable unrepairable : int;
  mutable sweeps : int;
}

let create ~interval_ns ~scan ~check =
  if interval_ns <= 0 then invalid_arg "Scrubber.create: interval_ns";
  {
    interval_ns;
    scan;
    check;
    next_due = interval_ns;
    worklist = [||];
    cursor = 0;
    pages_scrubbed = 0;
    repairs = 0;
    unrepairable = 0;
    sweeps = 0;
  }

let sweep_in_flight t = t.cursor < Array.length t.worklist

let start_sweep t =
  t.worklist <- t.scan ();
  t.cursor <- 0;
  t.sweeps <- t.sweeps + 1

let check_one t =
  let page = t.worklist.(t.cursor) in
  t.cursor <- t.cursor + 1;
  t.pages_scrubbed <- t.pages_scrubbed + 1;
  match t.check ~page with
  | Clean -> ()
  | Repaired n -> t.repairs <- t.repairs + n
  | Unrepairable n -> t.unrepairable <- t.unrepairable + n

let tick t ~now =
  if (not (sweep_in_flight t)) && now >= t.next_due then begin
    start_sweep t;
    t.next_due <- now + t.interval_ns
  end;
  let quota = ref budget in
  while sweep_in_flight t && !quota > 0 do
    check_one t;
    decr quota
  done

(* A complete sweep from scratch, ignoring interval and budget.  Any
   in-flight sweep is abandoned: its cursor may already have passed pages
   corrupted after it started (deliveries burst at fences), and the fresh
   worklist re-covers whatever remained of it anyway. *)
let force_sweep t =
  start_sweep t;
  while sweep_in_flight t do
    check_one t
  done

let pages_scrubbed t = t.pages_scrubbed
let repairs t = t.repairs
let unrepairable t = t.unrepairable
let sweeps t = t.sweeps
