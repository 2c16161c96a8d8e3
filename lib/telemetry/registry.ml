open Kona_util

module Counter = struct
  type t = { mutable count : int }

  let incr t = t.count <- t.count + 1
  let add t v = t.count <- t.count + v
  let value t = t.count
end

module Gauge = struct
  type t = { mutable level : int }

  let set t v = t.level <- v
  let add t v = t.level <- t.level + v
  let value t = t.level
end

type source =
  | S_counter of Counter.t
  | S_counter_fn of (unit -> int)
  | S_gauge of Gauge.t
  | S_gauge_fn of (unit -> int)
  | S_hist of Histogram.t
  | S_summary of Stats.t

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

let counter t ?(labels = []) name =
  let c = { Counter.count = 0 } in
  register t name labels (S_counter c);
  c

let counter_fn t ?(labels = []) name f = register t name labels (S_counter_fn f)

let gauge t ?(labels = []) name =
  let g = { Gauge.level = 0 } in
  register t name labels (S_gauge g);
  g

let gauge_fn t ?(labels = []) name f = register t name labels (S_gauge_fn f)

let histogram t ?(labels = []) name =
  let h = Histogram.create () in
  register t name labels (S_hist h);
  h

let histogram_ref t ?(labels = []) name h = register t name labels (S_hist h)

let summary t ?(labels = []) name =
  let s = Stats.create () in
  register t name labels (S_summary s);
  s

let in_scope t name = t.prefix = "" || String.starts_with ~prefix:t.prefix name

let size t =
  Hashtbl.fold (fun name _ n -> if in_scope t name then n + 1 else n) t.tbl 0

let value = function
  | S_counter c -> Snapshot.Counter (Counter.value c)
  | S_counter_fn f -> Snapshot.Counter (f ())
  | S_gauge g -> Snapshot.Gauge (Gauge.value g)
  | S_gauge_fn f -> Snapshot.Gauge (f ())
  | S_hist h -> Snapshot.Hist (Histogram.copy h)
  | S_summary s -> Snapshot.Summary (Stats.copy s)

let read t name = Option.map value (Hashtbl.find_opt t.tbl (t.prefix ^ name))

let snapshot t : Snapshot.t =
  Hashtbl.fold
    (fun name source acc ->
      if in_scope t name then (name, value source) :: acc else acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
