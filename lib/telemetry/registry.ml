open Kona_util

type source =
  | S_counter_fn of (unit -> int)
  | S_gauge_fn of (unit -> int)
  | S_hist of Histogram.t

type t = { tbl : (string, source) Hashtbl.t; prefix : string }

let create () = { tbl = Hashtbl.create 64; prefix = "" }
let scoped t ~prefix = { tbl = t.tbl; prefix = t.prefix ^ prefix }

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       name

let full_name name labels =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
  match labels with
  | [] -> name
  | labels ->
      List.iter
        (fun (k, v) ->
          if not (valid_name k && valid_name v) then
            invalid_arg
              (Printf.sprintf "Registry: invalid label %S=%S on metric %S" k v name))
        labels;
      let rendered =
        List.map (fun (k, v) -> k ^ "=" ^ v)
          (List.sort (fun (a, _) (b, _) -> String.compare a b) labels)
      in
      name ^ "{" ^ String.concat "," rendered ^ "}"

let register t name labels source =
  let fn = t.prefix ^ full_name name labels in
  if Hashtbl.mem t.tbl fn then
    invalid_arg (Printf.sprintf "Registry: duplicate metric %S" fn);
  Hashtbl.add t.tbl fn source

let counter_fn t ?(labels = []) name f = register t name labels (S_counter_fn f)
let gauge_fn t ?(labels = []) name f = register t name labels (S_gauge_fn f)
let histogram_ref t ?(labels = []) name h = register t name labels (S_hist h)

let in_scope t name = t.prefix = "" || String.starts_with ~prefix:t.prefix name

let size t =
  Hashtbl.fold (fun name _ n -> if in_scope t name then n + 1 else n) t.tbl 0

let value = function
  | S_counter_fn f -> Snapshot.Counter (f ())
  | S_gauge_fn f -> Snapshot.Gauge (f ())
  | S_hist h -> Snapshot.Hist (Histogram.copy h)

let read t name = Option.map value (Hashtbl.find_opt t.tbl (t.prefix ^ name))

let snapshot t : Snapshot.t =
  Hashtbl.fold
    (fun name source acc ->
      if in_scope t name then (name, value source) :: acc else acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
