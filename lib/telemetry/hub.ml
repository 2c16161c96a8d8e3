type t = { registry : Registry.t; tracer : Tracer.t }

let create ?trace_capacity ?sample () =
  {
    registry = Registry.create ();
    tracer = Tracer.create ?capacity:trace_capacity ?sample ();
  }

let registry t = t.registry
let tracer t = t.tracer

let scoped t ~prefix =
  { registry = Registry.scoped t.registry ~prefix; tracer = t.tracer }
let snapshot t = Registry.snapshot t.registry

let write_trace ~path t = Tracer.write_jsonl ~path t.tracer
