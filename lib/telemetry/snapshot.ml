open Kona_util

type value =
  | Counter of int
  | Gauge of int
  | Hist of Histogram.t

type t = (string * value) list

let find t name = List.assoc_opt name t

let counter_value t name =
  match find t name with
  | Some (Counter v) | Some (Gauge v) -> Some v
  | Some (Hist _) | None -> None

(* ------------------------------------------------------------------ *)
(* Exporters *)

let float_or_null f = if Float.is_nan f then Json.Null else Json.Float f

let value_to_json = function
  | Counter v -> [ ("type", Json.String "counter"); ("value", Json.Int v) ]
  | Gauge v -> [ ("type", Json.String "gauge"); ("value", Json.Int v) ]
  | Hist h ->
      [
        ("type", Json.String "histogram");
        ("count", Json.Int (Histogram.count h));
        ("sum", Json.Float (Histogram.sum h));
        ("mean", float_or_null (Histogram.mean h));
        ( "p50",
          Json.Int (if Histogram.count h = 0 then 0 else Histogram.percentile h 50.) );
        ( "p99",
          Json.Int (if Histogram.count h = 0 then 0 else Histogram.percentile h 99.) );
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, n) -> Json.List [ Json.Int lo; Json.Int n ])
               (Histogram.buckets h)) );
      ]

let to_json t =
  Json.List
    (List.map (fun (name, v) -> Json.Obj (("name", Json.String name) :: value_to_json v)) t)

let document ?(meta = []) t =
  Json.Obj
    ((("schema", Json.String "kona.telemetry.v1") :: meta) @ [ ("metrics", to_json t) ])

let pp_value fmt = function
  | Counter v -> Format.fprintf fmt "%d" v
  | Gauge v -> Format.fprintf fmt "%d (gauge)" v
  | Hist h -> Histogram.pp fmt h

let pp_table fmt t =
  let width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 t
  in
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  %-*s  %a@." width name pp_value v)
    t
