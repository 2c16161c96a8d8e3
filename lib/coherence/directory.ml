type state = Invalid | Shared | Modified

type t = {
  lines : (int, state) Hashtbl.t; (* absent = Invalid *)
  sharers : (int, int list) Hashtbl.t; (* absent = no tracked sharers *)
  owners : (int, int) Hashtbl.t; (* absent = no exclusive owner *)
  mutable handoffs : int;
  mutable owner_changes : int;
  mutable invalidations : int;
}

type grant = {
  g_peer : int option;
  g_peer_dirty : bool;
  g_invalidated : int list;
}

let no_grant = { g_peer = None; g_peer_dirty = false; g_invalidated = [] }

let create () =
  {
    lines = Hashtbl.create 4096;
    sharers = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    handoffs = 0;
    owner_changes = 0;
    invalidations = 0;
  }

let state t ~line =
  match Hashtbl.find_opt t.lines line with Some s -> s | None -> Invalid

let sharers t ~line =
  match Hashtbl.find_opt t.sharers line with
  | None -> []
  | Some l -> List.sort compare l

let owner t ~line = Hashtbl.find_opt t.owners line

let acquire t ~line ~tenant ~write =
  let grant_exclusive ?(inv = []) ?peer ?(dirty = false) () =
    t.owner_changes <- t.owner_changes + 1;
    Hashtbl.replace t.lines line Modified;
    Hashtbl.replace t.owners line tenant;
    Hashtbl.replace t.sharers line [ tenant ];
    { g_peer = peer; g_peer_dirty = dirty; g_invalidated = inv }
  in
  if write then
    match (state t ~line, owner t ~line) with
    | Modified, Some o when o = tenant -> no_grant (* write hit *)
    | Modified, Some o ->
        (* writer handoff: recall the dirty owner's copy, transfer
           ownership to the requester *)
        t.invalidations <- t.invalidations + 1;
        t.handoffs <- t.handoffs + 1;
        grant_exclusive ~peer:o ~dirty:true ()
    | (Invalid | Shared), _ | Modified, None ->
        (* RFO over a (possibly empty) reader set: every other sharer's
           copy dies before the requester may write *)
        let inv = List.filter (fun s -> s <> tenant) (sharers t ~line) in
        t.invalidations <- t.invalidations + List.length inv;
        grant_exclusive ~inv ()
  else
    match (state t ~line, owner t ~line) with
    | Modified, Some o when o = tenant -> no_grant (* owner reads own line *)
    | Modified, Some o ->
        (* dirty downgrade: the owner's copy comes home; both end Shared *)
        Hashtbl.remove t.owners line;
        Hashtbl.replace t.lines line Shared;
        Hashtbl.replace t.sharers line [ tenant; o ];
        { g_peer = Some o; g_peer_dirty = true; g_invalidated = [] }
    | (Invalid | Shared), _ | Modified, None ->
        let cur =
          match Hashtbl.find_opt t.sharers line with Some l -> l | None -> []
        in
        if not (List.mem tenant cur) then
          Hashtbl.replace t.sharers line (tenant :: cur);
        Hashtbl.replace t.lines line Shared;
        no_grant

let audit t =
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  Hashtbl.iter
    (fun line st ->
      let sh = sharers t ~line in
      let ow = owner t ~line in
      match st with
      | Invalid -> add "line %d: tracked as Invalid" line
      | Shared -> (
          match ow with
          | Some o -> add "line %d: Shared but owner %d recorded" line o
          | None -> ())
      | Modified -> (
          match ow with
          | None -> add "line %d: Modified with no owner" line
          | Some o ->
              List.iter
                (fun s ->
                  if s <> o then
                    add "line %d: owned by %d but %d still holds a copy" line
                      o s)
                sh))
    t.lines;
  Hashtbl.iter
    (fun line o ->
      if state t ~line <> Modified then
        add "line %d: stale owner %d on non-Modified line" line o)
    t.owners;
  List.sort compare !bad

let handoffs t = t.handoffs
let owner_changes t = t.owner_changes
let invalidations t = t.invalidations
