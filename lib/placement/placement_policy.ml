type node_info = {
  ni_node : int;
  ni_fast : bool;
  ni_free : int;
  ni_capacity : int;
  ni_draining : bool;
}

type page_info = {
  pi_vpage : int;
  pi_tenant : int;
  pi_node : int;
  pi_heat : int;
}

type view = { hot : page_info list; all : page_info list Lazy.t }
type move = { mv_tenant : int; mv_vpage : int; mv_dst : int }

type t = {
  name : string;
  choose_node : (nodes:node_info list -> tenant:int -> int option) option;
  plan : nodes:node_info list -> pages:view -> budget:int -> move list;
}

(* Policies plan in units of one page; the migrator re-checks capacity at
   execution time, so this is an estimate, not an invariant. *)
let page = 4096

(* ------------------------------------------------------------------ *)
(* first-fit: the controller's round-robin, no migration.              *)

let first_fit () =
  {
    name = "first-fit";
    choose_node = None;
    plan = (fun ~nodes:_ ~pages:_ ~budget:_ -> []);
  }

(* ------------------------------------------------------------------ *)
(* heat-aware: promote hot pages to the fast tier, demote cold ones.   *)

(* Mutable per-plan view of node free space so one epoch's moves don't
   all pile onto the same destination. *)
type slot = { info : node_info; mutable free : int }

let best_dst slots ~pred =
  let best = ref None in
  List.iter
    (fun s ->
      if
        pred s.info && (not s.info.ni_draining) && s.free >= page
        &&
        match !best with
        | None -> true
        | Some b ->
            s.free > b.free || (s.free = b.free && s.info.ni_node < b.info.ni_node)
      then best := Some s)
    slots;
  !best

let hot_threshold = 2

let heat_aware () =
  let plan ~nodes ~pages ~budget =
    let slots = List.map (fun info -> { info; free = info.ni_free }) nodes in
    let is_fast id =
      List.exists (fun n -> n.ni_node = id && n.ni_fast) nodes
    in
    let moves = ref [] and left = ref budget in
    let emit p dst =
      dst.free <- dst.free - page;
      moves := { mv_tenant = p.pi_tenant; mv_vpage = p.pi_vpage;
                 mv_dst = dst.info.ni_node }
               :: !moves;
      decr left
    in
    (* Hot pages stranded on the slow tier come first, hottest first.  A
       zero-heat page is never hot, so [pages.hot] holds them all. *)
    List.iter
      (fun p ->
        if !left > 0 && p.pi_heat >= hot_threshold && not (is_fast p.pi_node)
        then
          match best_dst slots ~pred:(fun n -> n.ni_fast) with
          | Some dst -> emit p dst
          | None -> ())
      pages.hot;
    (* Demote cold residue off the fast tier only under pressure — when
       its headroom has fallen below 1/8 of its capacity — so a tier
       with room left doesn't churn.  Demotions land on slow nodes, so
       the fast headroom stays what the promotions left; only under
       pressure are the cold pages read, coldest first. *)
    let fast_free =
      List.fold_left
        (fun a s -> if s.info.ni_fast then a + s.free else a)
        0 slots
    in
    let fast_cap =
      List.fold_left
        (fun a n -> if n.ni_fast then a + n.ni_capacity else a)
        0 nodes
    in
    if !left > 0 && fast_free < fast_cap / 8 then
      List.iter
        (fun p ->
          if !left > 0 && p.pi_heat < hot_threshold && is_fast p.pi_node then
            match best_dst slots ~pred:(fun n -> not n.ni_fast) with
            | Some dst -> emit p dst
            | None -> ())
        (List.rev (Lazy.force pages.all));
    List.rev !moves
  in
  {
    name = "heat";
    (* Allocation stays the controller's round-robin (placement is not
       clairvoyant about future access patterns); only observed heat
       moves pages, so first-fit vs heat isolates what migration buys. *)
    choose_node = None;
    plan;
  }

(* ------------------------------------------------------------------ *)
(* centralized: MIND-style directory — one allocator sees every node's *)
(* load, spreads fresh slabs least-loaded-first, and plans capacity-   *)
(* balancing moves off overfull nodes.                                 *)

let centralized () =
  let used n = n.ni_capacity - n.ni_free in
  let plan ~nodes ~pages ~budget =
    let live = List.filter (fun n -> not n.ni_draining) nodes in
    match live with
    | [] | [ _ ] -> []
    | _ ->
        let total_used = List.fold_left (fun a n -> a + used n) 0 live in
        let mean = total_used / List.length live in
        (* A node is overfull once it exceeds the mean by more than one
           slab's worth of slack; shed its coldest pages to the node
           with the most headroom.  A balanced rack reads no pages. *)
        let slack = 64 * page in
        let slots = List.map (fun info -> { info; free = info.ni_free }) live in
        let over id =
          List.exists
            (fun n -> n.ni_node = id && used n > mean + slack)
            live
        in
        let coldest_first =
          if List.exists (fun n -> used n > mean + slack) live then
            List.rev (Lazy.force pages.all)
          else []
        in
        let moves = ref [] and left = ref budget in
        List.iter
          (fun p ->
            if !left > 0 && over p.pi_node then
              match
                best_dst slots ~pred:(fun n -> n.ni_node <> p.pi_node)
              with
              | Some dst when used dst.info < mean + slack ->
                  dst.free <- dst.free - page;
                  moves :=
                    { mv_tenant = p.pi_tenant; mv_vpage = p.pi_vpage;
                      mv_dst = dst.info.ni_node }
                    :: !moves;
                  decr left
              | _ -> ())
          coldest_first (* balance with cheap pages *);
        List.rev !moves
  in
  {
    name = "centralized";
    choose_node =
      Some
        (fun ~nodes ~tenant:_ ->
          match
            best_dst
              (List.map (fun info -> { info; free = info.ni_free }) nodes)
              ~pred:(fun _ -> true)
          with
          | Some s -> Some s.info.ni_node
          | None -> None);
    plan;
  }

(* ------------------------------------------------------------------ *)

let names = [ "first-fit"; "heat"; "centralized" ]

let find = function
  | "first-fit" -> first_fit ()
  | "heat" -> heat_aware ()
  | "centralized" -> centralized ()
  | s ->
      invalid_arg
        (Printf.sprintf "unknown placement policy %S (expected %s)" s
           (String.concat " | " names))
