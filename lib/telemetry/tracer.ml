open Kona_util

type kind = Instant | Span of { dur_ns : int }

type event = {
  seq : int;
  name : string;
  kind : kind;
  app_ns : int;
  bg_ns : int;
  args : (string * int) list;
}

type t = {
  ring : event Ring_buffer.t;
  sample : int;
  mutable now : unit -> int * int;
  mutable offered : int; (* events presented, pre-sampling *)
  mutable accepted : int; (* events that entered the ring *)
}

let create ?(capacity = 4096) ?(sample = 1) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  if sample <= 0 then invalid_arg "Tracer.create: sample must be positive";
  {
    ring = Ring_buffer.create ~capacity;
    sample;
    now = (fun () -> (0, 0));
    offered = 0;
    accepted = 0;
  }

let set_clock t f = t.now <- f

let record t name kind args =
  t.offered <- t.offered + 1;
  (* Deterministic 1-in-N sampling: keeps hot paths cheap without an RNG,
     and identical runs produce identical traces. *)
  if t.offered mod t.sample = 0 then begin
    let app_ns, bg_ns = t.now () in
    let e = { seq = t.accepted; name; kind; app_ns; bg_ns; args } in
    t.accepted <- t.accepted + 1;
    ignore (Ring_buffer.force_push t.ring e : event option)
  end

let instant t ?(args = []) name = record t name Instant args
let span t ?(args = []) ~dur_ns name = record t name (Span { dur_ns }) args

let events t =
  let out = ref [] in
  Ring_buffer.iter t.ring (fun e -> out := e :: !out);
  List.rev !out

let length t = Ring_buffer.length t.ring
let offered t = t.offered
let accepted t = t.accepted

let event_to_json e =
  let base =
    [
      ("seq", Json.Int e.seq);
      ("name", Json.String e.name);
      ( "kind",
        Json.String (match e.kind with Instant -> "instant" | Span _ -> "span") );
      ("app_ns", Json.Int e.app_ns);
      ("bg_ns", Json.Int e.bg_ns);
    ]
  in
  let dur = match e.kind with Span { dur_ns } -> [ ("dur_ns", Json.Int dur_ns) ] | Instant -> [] in
  let args =
    match e.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) args)) ]
  in
  Json.Obj (base @ dur @ args)

let write_jsonl ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let n = ref 0 in
      Ring_buffer.iter t.ring (fun e ->
          output_string oc (Json.to_string (event_to_json e));
          output_char oc '\n';
          incr n);
      !n)
