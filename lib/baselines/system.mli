(** One single-runtime driver: a workload on one of the paper's systems
    (§6) over a fresh fabric, ending with the remote-memory check.

    [konactl run]/[stats], the benches and the tests build their Kona and
    page-based runtimes here.  The application heap is the runtime's
    eviction data source and the runtime is the heap's access sink;
    {!kona} and {!vm} tie that knot once.  {!check} holds the one oracle
    rule for a single-runtime run. *)

val names : string list
(** The systems {!run} knows: [kona], [kona-vm], [legoos], [infiniswap]. *)

val kona :
  ?config:Kona.Runtime.config ->
  ?nic:Kona_rdma.Nic.t ->
  ?hub:Kona_telemetry.Hub.t ->
  ?controller:Kona.Rack_controller.t ->
  heap_capacity:int ->
  unit ->
  Kona.Runtime.t * Kona_workloads.Heap.t
(** A Kona runtime and the heap that drives it.  [controller] defaults to
    the one fabric: two 128 MiB memory nodes behind 1 MiB slabs. *)

val vm :
  ?config:Vm_runtime.config ->
  ?nic:Kona_rdma.Nic.t ->
  ?hub:Kona_telemetry.Hub.t ->
  ?controller:Kona.Rack_controller.t ->
  profile:Vm_runtime.profile ->
  heap_capacity:int ->
  unit ->
  Vm_runtime.t * Kona_workloads.Heap.t
(** {!kona} for the page-based runtime with [profile]. *)

type check = Kona.Resource_manager.check = {
  checked : int;
  mismatches : int;
  lost : int;
}

val check :
  ?unrepairable:int list -> Kona_workloads.Heap.t -> Kona.Resource_manager.t -> check
(** After a drain, remote memory must equal the heap.  A backed page is
    checked when it lies inside the heap, holds no poked (mmap'd input)
    bytes and is not in [unrepairable] (pages the runtime declared lost,
    {!Kona.Runtime.unrepairable_pages}).  A page whose home crashed with
    no promoted replica counts as [lost], not as a mismatch. *)

type result = {
  system : string;
  hub : Kona_telemetry.Hub.t;  (** the run's own telemetry *)
  elapsed_ns : int;
  stats : (string * int) list;
  footprint : int;  (** heap bytes the workload allocated *)
  check : check;
  degraded : string option;  (** {!Kona.Runtime.degraded}; [None] on VM systems *)
}

val run :
  kona:Kona.Runtime.config ->
  vm:Vm_runtime.config ->
  Kona_workloads.Workloads.spec ->
  Kona_workloads.Workloads.scale ->
  seed:int ->
  string ->
  result
(** [run ~kona ~vm spec scale ~seed system] runs [spec] on [system] (one
    of {!names}) over a fresh default fabric: the Kona runtime with
    config [kona], or the page-based runtime with config [vm] and the
    system's cost profile.  It drains the runtime and checks remote
    memory.  Exceptions of the run (e.g. an exhausted retry budget)
    propagate.
    @raise Invalid_argument on an unknown [system]. *)
