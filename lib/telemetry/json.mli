(** Minimal JSON documents: the telemetry exporters' wire format.

    Compact encoder plus a strict parser ([of_string]) so tests and the CLI
    can validate exporter output without external dependencies.  NaN and
    infinite floats encode as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) encoding. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document; [Error] carries a position. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val to_list_opt : t -> t list option
val to_string_opt : t -> string option
