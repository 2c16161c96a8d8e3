open Kona_util

type kind = Read | Write
type t = { addr : int; len : int; kind : kind }
type sink = t -> unit

let make kind ~addr ~len =
  assert (addr >= 0 && len > 0);
  { addr; len; kind }

let read = make Read
let write = make Write
let is_write t = t.kind = Write
let end_addr t = t.addr + t.len

let iter_lines t f =
  let first = Units.line_of_addr t.addr in
  let last = Units.line_of_addr (end_addr t - 1) in
  for line = first to last do
    f line
  done

let iter_pages t f =
  let first = Units.page_of_addr t.addr in
  let last = Units.page_of_addr (end_addr t - 1) in
  for page = first to last do
    f page
  done

let split_at_lines t =
  let rec loop acc addr remaining =
    if remaining = 0 then List.rev acc
    else
      let line_end = Units.align_down addr ~alignment:Units.cache_line + Units.cache_line in
      let len = min remaining (line_end - addr) in
      loop ({ t with addr; len } :: acc) (addr + len) (remaining - len)
  in
  loop [] t.addr t.len

module Tap = struct
  let tee sinks event = List.iter (fun sink -> sink event) sinks
  let filter pred sink event = if pred event then sink event
  let ignore (_ : t) = ()

  let counting () =
    let n = ref 0 in
    ((fun (_ : t) -> incr n), fun () -> !n)
end
