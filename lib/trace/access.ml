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

let first_line t = Units.line_of_addr t.addr
let last_line t = Units.line_of_addr (end_addr t - 1)

let iter_lines t f =
  for line = first_line t to last_line t do
    f line
  done

let iter_pages t f =
  let first = Units.page_of_addr t.addr in
  let last = Units.page_of_addr (end_addr t - 1) in
  for page = first to last do
    f page
  done

module Tap = struct
  let tee sinks event = List.iter (fun sink -> sink event) sinks
  let ignore (_ : t) = ()
end
