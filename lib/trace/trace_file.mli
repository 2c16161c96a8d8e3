(** Binary access-trace files: record a workload's access stream once,
    replay it through any analysis or runtime later.

    The paper's methodology relies on instrumentation traces (Intel Pin);
    this gives the reproduction the same record/replay decoupling — e.g.
    capture an expensive workload once and sweep KCacheSim configurations
    over the file.

    Format: a 16-byte header ("KONATRACE1", padded) followed by 13-byte
    records: 1 byte kind (0 read / 1 write), 8 bytes little-endian address,
    4 bytes little-endian length. *)

val writer : path:string -> Access.sink * (unit -> int)
(** [writer ~path] opens [path] for writing and returns the recording sink
    plus a [close] function returning the number of events written.
    Raises [Sys_error] on I/O failure. *)

val iter : path:string -> Access.sink -> int
(** Replay every event of the file into the sink, in order; returns the
    event count.  Raises [Failure] on a malformed file. *)
