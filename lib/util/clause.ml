exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
let parse f s = match f s with v -> Ok v | exception Bad msg -> Error msg

let split s =
  String.split_on_char ';' s |> List.map String.trim |> List.filter (fun c -> c <> "")

(* Two-letter suffixes first, so "2ms" is not read as "2m" seconds. *)
let units = [ ("ns", 1); ("us", 1_000); ("ms", 1_000_000); ("s", 1_000_000_000) ]

let duration s =
  let num, mult =
    match List.find_opt (fun (u, _) -> String.ends_with ~suffix:u s) units with
    | Some (u, mult) -> (String.sub s 0 (String.length s - String.length u), mult)
    | None -> (s, 1)
  in
  match int_of_string_opt num with
  | Some v when v >= 0 && v <= max_int / mult -> v * mult
  | Some v when v >= 0 -> bad "duration %S exceeds %dns" s max_int
  | Some _ | None -> bad "bad duration %S (expected e.g. 500ns, 200us, 2ms, 1s)" s

let duration_to_string ns =
  match List.find_opt (fun (_, mult) -> ns > 0 && ns mod mult = 0) (List.rev units) with
  | Some (u, mult) -> Printf.sprintf "%d%s" (ns / mult) u
  | None -> Printf.sprintf "%dns" ns

type t = { kind : string; at_ns : int option; params : (string * string) list }

let cut s i = (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let of_string s =
  let head, params =
    match String.index_opt s ':' with
    | Some i ->
        let head, rest = cut s i in
        (head, String.split_on_char ',' rest)
    | None -> (s, [])
  in
  let kind, at_ns =
    match String.index_opt head '@' with
    | Some i ->
        let kind, at = cut head i in
        (kind, Some (duration at))
    | None -> (head, None)
  in
  let kv p =
    match String.index_opt p '=' with
    | Some i -> cut p i
    | None -> bad "bad parameter %S (expected key=value)" p
  in
  { kind; at_ns; params = List.map kv (List.filter (fun p -> p <> "") params) }

let trigger c =
  match c.at_ns with
  | Some t -> t
  | None -> bad "%s needs a trigger time (e.g. %s@2ms)" c.kind c.kind

let known c keys =
  List.iter
    (fun (k, _) ->
      if not (List.mem k keys) then bad "unknown parameter %s for %s" k c.kind)
    c.params

let field c key =
  match List.assoc_opt key c.params with
  | Some v -> v
  | None -> bad "missing required parameter %s=" key

let int ~key s =
  match int_of_string_opt s with Some v -> v | None -> bad "bad integer %S for %s" s key

let at_least lo ~key s =
  let v = int ~key s in
  if v < lo then bad "%s must be >= %d (got %d)" key lo v;
  v

let pos = at_least 1
let nonneg = at_least 0

let list ~key read s =
  match String.split_on_char '|' s |> List.filter (fun x -> x <> "") |> List.map read with
  | [] -> bad "%s: empty list" key
  | l -> l

let list_to_string f l = String.concat "|" (List.map f l)
