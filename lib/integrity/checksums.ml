open Kona_util

type t = {
  crcs : int array; (* per-line CRC32C; meaningful only when recorded *)
  recorded : Bytes.t; (* bitmap, one bit per line *)
  lines : int;
}

let create ~capacity =
  if capacity <= 0 || capacity mod Units.cache_line <> 0 then
    invalid_arg "Checksums.create: capacity must be a positive multiple of 64";
  let lines = capacity / Units.cache_line in
  {
    crcs = Array.make lines 0;
    recorded = Bytes.make ((lines + 7) / 8) '\000';
    lines;
  }

let is_recorded t line =
  Char.code (Bytes.get t.recorded (line lsr 3)) land (1 lsl (line land 7)) <> 0

let mark_recorded t line =
  let byte = line lsr 3 in
  Bytes.set t.recorded byte
    (Char.chr (Char.code (Bytes.get t.recorded byte) lor (1 lsl (line land 7))))

let recorded t ~line =
  if line < 0 || line >= t.lines then invalid_arg "Checksums.recorded";
  is_recorded t line

let set_line t ~line ~crc =
  if line < 0 || line >= t.lines then invalid_arg "Checksums.set_line";
  t.crcs.(line) <- crc;
  mark_recorded t line

let record t ~store ~addr ~len =
  if len <= 0 then ()
  else begin
    let first = addr / Units.cache_line in
    let last = (addr + len - 1) / Units.cache_line in
    if addr < 0 || last >= t.lines then invalid_arg "Checksums.record";
    for line = first to last do
      t.crcs.(line) <-
        Crc32c.digest_bytes store ~pos:(line * Units.cache_line)
          ~len:Units.cache_line;
      mark_recorded t line
    done
  end

let crc_matches t ~store line =
  t.crcs.(line)
  = Crc32c.digest_bytes store ~pos:(line * Units.cache_line) ~len:Units.cache_line

let line_ok t ~store ~line =
  if line < 0 || line >= t.lines then invalid_arg "Checksums.line_ok";
  (not (is_recorded t line)) || crc_matches t ~store line
