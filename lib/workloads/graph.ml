open Kona_util

type t = {
  heap : Heap.t;
  vertices : int;
  edges : int; (* directed entries *)
  offsets : int; (* addr of (vertices+1) u64 offsets *)
  adjacency : int; (* addr of [edges] u64 neighbour ids *)
}

let generate heap ~rng ~vertices ~avg_degree =
  assert (vertices > 1 && avg_degree >= 1);
  let undirected = vertices * avg_degree / 2 in
  (* Draw endpoints with mild skew towards low ids so some vertices are
     hubs, as in real graphs.  Self-loops are rejected; parallel edges are
     tolerated (multigraphs are fine for these algorithms). *)
  let adj = Array.make vertices [] in
  let degree = Array.make vertices 0 in
  let draw () =
    if Rng.bool rng then Rng.int rng vertices
    else Rng.zipf rng ~n:vertices ~theta:0.6
  in
  let added = ref 0 in
  while !added < undirected do
    let u = draw () and v = draw () in
    if u <> v then begin
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v);
      degree.(u) <- degree.(u) + 1;
      degree.(v) <- degree.(v) + 1;
      incr added
    end
  done;
  let edges = 2 * undirected in
  let offsets = Heap.alloc heap (8 * (vertices + 1)) in
  let adjacency = Heap.alloc heap (8 * edges) in
  (* Write CSR arrays sequentially (the "load the graph" phase). *)
  let cursor = ref 0 in
  for v = 0 to vertices - 1 do
    Heap.write_u64 heap (offsets + (8 * v)) !cursor;
    List.iter
      (fun n ->
        Heap.write_u64 heap (adjacency + (8 * !cursor)) n;
        incr cursor)
      (List.rev adj.(v))
  done;
  Heap.write_u64 heap (offsets + (8 * vertices)) !cursor;
  assert (!cursor = edges);
  { heap; vertices; edges; offsets; adjacency }

let vertex_count t = t.vertices
let edge_count t = t.edges

let offset t v = Heap.read_u64 t.heap (t.offsets + (8 * v))

let degree t v =
  let lo = offset t v and hi = offset t (v + 1) in
  hi - lo

let iter_neighbors t v f =
  let lo = offset t v and hi = offset t (v + 1) in
  for i = lo to hi - 1 do
    f (Heap.read_u64 t.heap (t.adjacency + (8 * i)))
  done

let alloc_vertex_records t ~stride =
  assert (stride > 0 && stride mod Units.cache_line = 0);
  Heap.alloc t.heap ~align:Units.cache_line (stride * t.vertices)

let heap_of t = t.heap

let iter_neighbors_quiet t v f =
  let lo = Heap.peek_u64 t.heap (t.offsets + (8 * v)) in
  let hi = Heap.peek_u64 t.heap (t.offsets + (8 * (v + 1))) in
  for i = lo to hi - 1 do
    f (Heap.peek_u64 t.heap (t.adjacency + (8 * i)))
  done
