(** The lexer shared by the one-line spec grammars: fault plans
    ([Kona_faults.Fault_spec]), rack-op calendars ([Kona_rack.Rack_ops])
    and scenario specs ([Kona_scenario.Spec]).

    A spec is a list of clauses separated by [';'].  Each clause is

    {v kind[@T][:key=value[,key=value...]] v}

    where [T] is a duration.  Durations are non-negative integers with an
    optional [ns], [us], [ms] or [s] suffix (bare integers are
    nanoseconds) and must fit in an [int] once converted to nanoseconds.
    Lists inside one value use ['|'], so [','] stays the parameter
    separator.

    Every reader raises {!Bad} with a message naming the offending text;
    a grammar's [parse] catches it once, through {!parse}. *)

exception Bad of string

val bad : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} with a formatted message. *)

val parse : (string -> 'a) -> string -> ('a, string) result
(** [parse f s] is [Ok (f s)], or [Error msg] if [f] raised [Bad msg]. *)

val split : string -> string list
(** The spec's clauses: split on [';'], trimmed, empty ones dropped. *)

type t = {
  kind : string;
  at_ns : int option;  (** the [@T] trigger time, if any *)
  params : (string * string) list;  (** in order; each key at most once *)
}

val of_string : string -> t
(** Lex one clause.  A parameter without ['='], a key given twice or a
    malformed [@T] is rejected. *)

val trigger : t -> int
(** The clause's trigger time; rejects a clause without one. *)

val known : t -> string list -> unit
(** Reject any parameter whose key is not in the list. *)

val field : t -> string -> string
(** The value of a required parameter. *)

val duration : string -> int
(** Nanoseconds of a duration such as ["500ns"], ["200us"], ["2ms"],
    ["1s"] or ["7"]. *)

val duration_to_string : int -> string
(** The canonical rendering of a non-negative duration: the largest unit
    that divides it exactly (["0ns"] for zero), so
    [duration (duration_to_string n) = n]. *)

val int : key:string -> string -> int
(** Any integer; [key] names the parameter in the error. *)

val pos : key:string -> string -> int
(** An integer [>= 1]. *)

val nonneg : key:string -> string -> int
(** An integer [>= 0]. *)

val list : key:string -> (string -> 'a) -> string -> 'a list
(** A non-empty ['|']-separated list, each element read by the given
    reader; empty elements are dropped. *)

val list_to_string : ('a -> string) -> 'a list -> string
(** Render a ['|']-separated list. *)
