(** Registry of the nine Table 2 workloads, with paper-reported reference
    values and two size presets.

    Paper memory footprints (0.13–40 GB) are scaled down so the full suite
    runs in minutes on one machine; the scaling factor per workload is
    visible in [heap_capacity] and recorded in EXPERIMENTS.md.  Access
    *patterns*, which determine every reproduced metric, are preserved. *)

type scale =
  | Smoke  (** seconds-fast, for unit tests *)
  | Full  (** bench-sized *)

type spec = {
  name : string;  (** exactly the Table 2 row label *)
  paper_mem_gb : float;
  paper_amp_4k : float;
  paper_amp_2m : float;
  paper_amp_cl : float;
  heap_capacity : scale -> int;
  quantum : scale -> int;
      (** Window size in accesses for this workload/scale, standing in for
          the paper's 10-second wall-clock windows.  Chosen so a window
          covers roughly the same fraction of the working set as the
          paper's windows do (tens of windows per run). *)
  run : scale -> heap:Heap.t -> seed:int -> unit;
      (** Runs the workload to completion on [heap]; raises on any internal
          correctness violation (wrong regression fit, lost histogram
          samples, improper coloring, ...). *)
}

val all : spec list
(** In Table 2 row order. *)

val find : string -> spec
(** Searches [all], then the workloads beyond the paper's set (Redis-Zipf,
    a skewed-key driver between the paper's Rand/Seq extremes: runnable
    through every tool but excluded from Table 2 reproduction); raises
    [Not_found] on unknown names.  Besides the exact Table 2 labels,
    accepts lowercase dashed slugs ([page-rank], [linear-regression]) and
    the aliases [kv-uniform] / [kv-seq] / [kv-zipf] for Redis-Rand /
    Redis-Seq / Redis-Zipf. *)

val redis_rand : spec
val redis_seq : spec
val linear_regression : spec
val graph_coloring : spec
