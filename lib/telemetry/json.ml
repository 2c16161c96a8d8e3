(* Minimal JSON document type with a compact encoder and a strict parser.

   The repository deliberately avoids external serialization dependencies
   (the container bakes in only the core toolchain); the telemetry exporters
   and their tests need exactly this much JSON and nothing more. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no NaN/Infinity; empty-stream stats degrade to null. *)
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s -> escape_into buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (strict; good enough to validate our own exporters) *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    && match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' -> (
        cur.pos <- cur.pos + 1;
        match peek cur with
        | Some '"' -> Buffer.add_char buf '"'; cur.pos <- cur.pos + 1; loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; cur.pos <- cur.pos + 1; loop ()
        | Some '/' -> Buffer.add_char buf '/'; cur.pos <- cur.pos + 1; loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; cur.pos <- cur.pos + 1; loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; cur.pos <- cur.pos + 1; loop ()
        | Some 't' -> Buffer.add_char buf '\t'; cur.pos <- cur.pos + 1; loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; cur.pos <- cur.pos + 1; loop ()
        | Some 'f' -> Buffer.add_char buf '\012'; cur.pos <- cur.pos + 1; loop ()
        | Some 'u' ->
            if cur.pos + 5 > String.length cur.s then fail cur "short \\u escape";
            let hex = String.sub cur.s (cur.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
            in
            (* Only BMP code points below 0x80 round-trip as single bytes; our
               exporters never emit higher ones unescaped. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
            cur.pos <- cur.pos + 5;
            loop ()
        | _ -> fail cur "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        cur.pos <- cur.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  let text = String.sub cur.s start (cur.pos - start) in
  if text = "" then fail cur "expected number";
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "bad float"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
      expect cur '{';
      skip_ws cur;
      if peek cur = Some '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              cur.pos <- cur.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail cur "expected , or }"
        in
        Obj (fields [])
      end
  | Some '[' ->
      expect cur '[';
      skip_ws cur;
      if peek cur = Some ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              items (v :: acc)
          | Some ']' ->
              cur.pos <- cur.pos + 1;
              List.rev (v :: acc)
          | _ -> fail cur "expected , or ]"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> parse_number cur

let of_string s =
  let cur = { s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> String.length s then Error "trailing garbage"
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors used by tests and the CLI assertions *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_opt = function List items -> Some items | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
