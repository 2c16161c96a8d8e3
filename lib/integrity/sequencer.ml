module Tx = struct
  type t = { mutable epoch : int; next_seq : (int, int) Hashtbl.t }

  let create () = { epoch = 0; next_seq = Hashtbl.create 8 }
  let epoch t = t.epoch

  (* A rising epoch restarts every stream: a failover anywhere moves
     every tenant's sender to the same epoch, so a fenced store can
     compare any shipment against one number. *)
  let next t ~epoch ~stream =
    if epoch > t.epoch then begin
      t.epoch <- epoch;
      Hashtbl.reset t.next_seq
    end;
    let seq = Option.value (Hashtbl.find_opt t.next_seq stream) ~default:0 in
    Hashtbl.replace t.next_seq stream (seq + 1);
    seq
end

module Rx = struct
  type stream_state = { mutable epoch : int; mutable last_seq : int }
  type t = { streams : (int, stream_state) Hashtbl.t }

  type verdict = Ok | Gap of int | Duplicate | Stale_epoch

  let create () = { streams = Hashtbl.create 8 }

  let observe t ~stream ~epoch ~seq =
    match Hashtbl.find_opt t.streams stream with
    | None ->
        (* Unknown stream: adopt the first stamp we see.  A mirror
           created mid-run (re-replication) starts here and must not
           flag the sender's pre-existing seq as a gap. *)
        Hashtbl.replace t.streams stream { epoch; last_seq = seq };
        Ok
    | Some st ->
        if epoch < st.epoch then Stale_epoch
        else if epoch > st.epoch then begin
          st.epoch <- epoch;
          st.last_seq <- seq;
          Ok
        end
        else if seq <= st.last_seq then Duplicate
        else begin
          let missed = seq - st.last_seq - 1 in
          st.last_seq <- seq;
          if missed = 0 then Ok else Gap missed
        end

  let pp_verdict fmt = function
    | Ok -> Format.pp_print_string fmt "ok"
    | Gap n -> Format.fprintf fmt "gap:%d" n
    | Duplicate -> Format.pp_print_string fmt "duplicate"
    | Stale_epoch -> Format.pp_print_string fmt "stale-epoch"
end
