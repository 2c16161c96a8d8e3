(** In-arena CSR graph substrate for the GraphLab-class workloads
    (Page Rank, Graph Coloring, Connected Components, Label Propagation).

    The offsets and edge arrays live in the instrumented heap; traversals
    produce the sequential-offset / random-neighbour access mix
    characteristic of graph analytics.  Graphs are undirected (every edge stored in both
    directions) and generated from a deterministic RNG. *)

type t

val generate :
  Heap.t -> rng:Kona_util.Rng.t -> vertices:int -> avg_degree:int -> t
(** Random multigraph-free undirected graph with [vertices * avg_degree / 2]
    edges, skewed towards low vertex ids (power-law-ish degree
    distribution), built and then written into the arena. *)

val vertex_count : t -> int

val degree : t -> int -> int
(** Reads the offsets array (instrumented). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Reads offsets then scans the edge slice (instrumented). *)

val alloc_vertex_records : t -> stride:int -> int
(** Allocate one [stride]-byte, cache-line-aligned record per vertex.
    GraphLab-class frameworks keep a substantial per-vertex structure
    (vertex data, adjacency metadata, scheduler state) of which an update
    rewrites only the algorithm's mutable fields; this layout is what gives
    graph analytics their characteristic page-level dirty amplification. *)

val heap_of : t -> Heap.t

val iter_neighbors_quiet : t -> int -> (int -> unit) -> unit
(** Like {!iter_neighbors} but via uninstrumented reads — emits no access
    events.  For validation code only. *)
