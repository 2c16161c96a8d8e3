(* Lists every export of a lib/ interface that only test/ names, and checks
   the list against an allow-list.

   An export is a [val] of lib/**/*.mli, keyed by its module path
   ([Ring_buffer.create], [Sequencer.Rx.accept]).  A file names an export
   when an identifier in it resolves to that key: through the library
   ([Kona_util.Ring_buffer.create]), through a module alias ([module R =
   Kona_util.Ring_buffer] then [R.create]), or unqualified under an [open],
   [let open], [M.( )] or [include] in scope.  A record field
   ([victim.Fmem.dirty_lines]) names no value, and names inside the
   export's own module do not count.  A local [module M = struct .. end]
   hides a library module of the same name.

   Usage: test_only_exports.exe ROOT ALLOW

   ROOT holds lib/, bin/, bench/, examples/ and test/.  Each line of ALLOW
   is an export key and the reason a test needs it; [#] starts a comment.
   Exits 1 when an export that only test/ names is not on the list, when a
   listed export is named by a run or by nobody, or when an export is named
   nowhere outside its own module. *)

open Parsetree

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then files path
         else [ path ])

let with_ext ext = List.filter (fun p -> Filename.extension p = ext)
let module_of path = String.capitalize_ascii Filename.(remove_extension (basename path))
let read path = In_channel.with_open_bin path In_channel.input_all

let lexbuf path =
  let lb = Lexing.from_string (read path) in
  Location.init lb path;
  lb

(* The wrapper module of the library a lib/ dune file declares:
   [(name kona_util)] gives [Kona_util]. *)
let library dune =
  let s = read dune and key = "(name " in
  let rec find i =
    if i + String.length key > String.length s then None
    else if String.sub s i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = String.index_from s start ')' in
      String.capitalize_ascii (String.trim (String.sub s start (stop - start))))
    (find 0)

let rec exports prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value v -> [ String.concat "." (prefix @ [ v.pval_name.txt ]) ]
      | Psig_module
          { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
          exports (prefix @ [ m ]) sg
      | _ -> [])
    sg

(* Module paths in scope: an alias maps to its target with the library
   wrapper dropped ([None] for a local structure), an open to its path. *)
type env = { aliases : (string * string list option) list; opens : string list list }

(* The export keys a file names. *)
let named ~libraries ~is_key path =
  let env = ref { aliases = []; opens = [] } and found = Hashtbl.create 64 in
  let resolve = function
    | [] -> None
    | m :: rest -> (
        match List.assoc_opt m !env.aliases with
        | Some target -> Option.map (fun t -> t @ rest) target
        | None -> Some (if List.mem m libraries then rest else m :: rest))
  in
  let name path v =
    Option.to_list (resolve path) @ List.map (fun o -> o @ path) !env.opens
    |> List.iter (fun p ->
           let key = String.concat "." (p @ [ v ]) in
           if is_key key then Hashtbl.replace found key ())
  in
  let target me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } | Pmod_constraint ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
        resolve (Longident.flatten txt)
    | _ -> None
  in
  let bind m me = env := { !env with aliases = (m, target me) :: !env.aliases } in
  let open_ me = Option.iter (fun p -> env := { !env with opens = p :: !env.opens }) (target me) in
  let scoped f =
    let saved = !env in
    f ();
    env := saved
  in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident v; _ } -> name [] v
    | Pexp_ident { txt = Ldot (p, v); _ } -> name (Longident.flatten p) v
    | Pexp_open (od, body) ->
        scoped (fun () ->
            it.Ast_iterator.module_expr it od.popen_expr;
            open_ od.popen_expr;
            it.expr it body)
    | Pexp_letmodule ({ txt = Some m; _ }, me, body) ->
        scoped (fun () ->
            it.module_expr it me;
            bind m me;
            it.expr it body)
    | _ -> super.expr it e
  in
  let structure_item it item =
    super.structure_item it item;
    match item.pstr_desc with
    | Pstr_open od -> open_ od.popen_expr
    | Pstr_include inc -> open_ inc.pincl_mod
    | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> bind m pmb_expr
    | _ -> ()
  in
  let structure it s = scoped (fun () -> super.structure it s) in
  let it = { super with expr; structure_item; structure } in
  it.structure it (Parse.implementation (lexbuf path));
  Hashtbl.fold (fun k () acc -> k :: acc) found []

let () =
  let root, allow_file =
    match Sys.argv with
    | [| _; root; allow |] -> (root, allow)
    | _ ->
        prerr_endline "usage: test_only_exports.exe ROOT ALLOW";
        exit 2
  in
  let under d = files (Filename.concat root d) in
  let lib = under "lib" in
  let libraries =
    List.filter_map library (List.filter (fun p -> Filename.basename p = "dune") lib)
  in
  let keys = Hashtbl.create 1024 in
  List.iter
    (fun mli ->
      exports [ module_of mli ] (Parse.interface (lexbuf mli))
      |> List.iter (fun k -> Hashtbl.replace keys k ()))
    (with_ext ".mli" lib);
  let is_key = Hashtbl.mem keys in
  let by_run = Hashtbl.create 1024 and by_test = Hashtbl.create 1024 in
  let scan tbl ~own path =
    named ~libraries ~is_key path
    |> List.iter (fun k ->
           if Some (List.hd (String.split_on_char '.' k)) <> own then Hashtbl.replace tbl k ())
  in
  List.iter (fun p -> scan by_run ~own:(Some (module_of p)) p) (with_ext ".ml" lib);
  List.iter
    (fun d -> List.iter (scan by_run ~own:None) (with_ext ".ml" (under d)))
    [ "bin"; "bench"; "examples" ];
  List.iter (scan by_test ~own:None) (with_ext ".ml" (under "test"));
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let allowed = Hashtbl.create 64 in
  read allow_file
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           let key, reason =
             match String.index_opt line ' ' with
             | Some i ->
                 (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
             | None -> (line, "")
           in
           if reason = "" then fail "%s: allow-list entry gives no reason" key;
           if Hashtbl.mem allowed key then fail "%s: listed twice" key;
           Hashtbl.replace allowed key ());
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  List.iter
    (fun k ->
      match (Hashtbl.mem by_run k, Hashtbl.mem by_test k, Hashtbl.mem allowed k) with
      | false, true, false ->
          fail "%s: only test/ names it; delete it, move it into test/, or allow-list it" k
      | false, false, _ -> fail "%s: named nowhere outside its own module" k
      | true, _, true -> fail "%s: allow-listed, but a run names it" k
      | _ -> ())
    (sorted keys);
  List.iter
    (fun k -> if not (is_key k) then fail "%s: allow-listed, but lib/ exports no such value" k)
    (sorted allowed);
  match List.rev !errors with
  | [] -> ()
  | errors ->
      List.iter prerr_endline errors;
      exit 1
