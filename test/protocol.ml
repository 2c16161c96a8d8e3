(* MESI reference model (§2.3): one cache line's state at a caching agent,
   the bus action each CPU or remote event triggers, and which of those
   actions the home agent (the ccFPGA) observes.  [test_coherence] drives
   it in lock-step with [Kona_coherence.Directory.acquire] and checks that
   the directory is its home-side MSI projection.  No run executes it. *)

type state =
  | Invalid
  | Shared  (** clean, possibly other sharers *)
  | Exclusive  (** clean, sole owner — silent upgrade to Modified allowed *)
  | Modified  (** dirty, sole owner *)

type processor_event = Read | Write | Evict
type bus_event = Bus_read | Bus_read_for_ownership | Bus_invalidate

type action =
  | No_bus_action  (** cache-internal; invisible to the home agent *)
  | Issue_read  (** miss: request the line (home sees a fill) *)
  | Issue_rfo  (** write miss: request for ownership (home sees a write fill) *)
  | Issue_invalidate  (** upgrade S->M: invalidation broadcast *)
  | Writeback  (** modified data leaves the cache (home sees the data) *)
  | Supply_data  (** respond to a snoop with the modified line *)

let on_processor state event =
  match (state, event) with
  (* misses *)
  | Invalid, Read -> (Exclusive, Issue_read)
  (* we model the uncontended case: a read fill arrives Exclusive; the
     home may downgrade it to Shared if other sharers exist *)
  | Invalid, Write -> (Modified, Issue_rfo)
  | Invalid, Evict -> (Invalid, No_bus_action)
  (* hits *)
  | Shared, Read -> (Shared, No_bus_action)
  | Shared, Write -> (Modified, Issue_invalidate)
  | Shared, Evict -> (Invalid, No_bus_action) (* silent drop of clean data *)
  | Exclusive, Read -> (Exclusive, No_bus_action)
  | Exclusive, Write -> (Modified, No_bus_action) (* the silent upgrade *)
  | Exclusive, Evict -> (Invalid, No_bus_action)
  | Modified, Read -> (Modified, No_bus_action)
  | Modified, Write -> (Modified, No_bus_action)
  | Modified, Evict -> (Invalid, Writeback)

let on_bus state event =
  match (state, event) with
  | Invalid, (Bus_read | Bus_read_for_ownership | Bus_invalidate) ->
      (Invalid, No_bus_action)
  | Shared, Bus_read -> (Shared, No_bus_action)
  | Shared, (Bus_read_for_ownership | Bus_invalidate) -> (Invalid, No_bus_action)
  | Exclusive, Bus_read -> (Shared, No_bus_action)
  | Exclusive, (Bus_read_for_ownership | Bus_invalidate) -> (Invalid, No_bus_action)
  | Modified, Bus_read -> (Shared, Supply_data)
  | Modified, Bus_read_for_ownership -> (Invalid, Supply_data)
  | Modified, Bus_invalidate ->
      (* An invalidate targets Shared copies; a Modified line cannot
         coexist with one, but degrade gracefully: supply and drop. *)
      (Invalid, Supply_data)

(* The crucial asymmetries, which drive Kona's design: [Evict] of a clean
   line is silent (so the directory over-approximates sharers), and the
   [Exclusive -> Modified] upgrade is silent (so writes are only visible
   at writeback — hence eviction must snoop, §4.4). *)
let home_observes = function
  | Issue_read | Issue_rfo | Issue_invalidate | Writeback | Supply_data -> true
  | No_bus_action -> false

let is_dirty = function Modified -> true | Invalid | Shared | Exclusive -> false

let pp fmt state =
  Format.pp_print_string fmt
    (match state with
    | Invalid -> "I"
    | Shared -> "S"
    | Exclusive -> "E"
    | Modified -> "M")
