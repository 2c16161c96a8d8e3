(* Tests for Kona_vm: page-table fault semantics. *)

open Kona_vm

let check_bool = Alcotest.(check bool)

let fault = Alcotest.of_pp (fun fmt k ->
    Format.pp_print_string fmt
      (match k with
      | `None -> "none"
      | `Not_present -> "not-present"
      | `Protection -> "protection"))

(* ------------------------------------------------------------------ *)
(* Page_table *)

let test_pt_lifecycle () =
  let pt = Page_table.create () in
  Alcotest.check fault "unmapped read" `Not_present
    (Page_table.fault_kind pt ~page:5 ~write:false);
  Page_table.map pt ~page:5 ~protection:Page_table.Read_only;
  Alcotest.check fault "read ok" `None (Page_table.fault_kind pt ~page:5 ~write:false);
  Alcotest.check fault "write protected" `Protection
    (Page_table.fault_kind pt ~page:5 ~write:true);
  Page_table.make_writable pt ~page:5;
  Alcotest.check fault "write ok" `None (Page_table.fault_kind pt ~page:5 ~write:true);
  Page_table.unmap pt ~page:5;
  Alcotest.check fault "unmapped again" `Not_present
    (Page_table.fault_kind pt ~page:5 ~write:true)

let test_pt_flags () =
  let pt = Page_table.create () in
  Page_table.map pt ~page:1 ~protection:Page_table.Read_write;
  let pte = Option.get (Page_table.lookup pt ~page:1) in
  check_bool "fresh not accessed" false pte.Page_table.accessed;
  ignore (Page_table.fault_kind pt ~page:1 ~write:false);
  check_bool "accessed after read" true pte.Page_table.accessed;
  check_bool "not dirty after read" false pte.Page_table.dirty;
  ignore (Page_table.fault_kind pt ~page:1 ~write:true);
  check_bool "dirty after write" true pte.Page_table.dirty

let test_pt_write_protect_again () =
  let pt = Page_table.create () in
  Page_table.map pt ~page:2 ~protection:Page_table.Read_write;
  ignore (Page_table.fault_kind pt ~page:2 ~write:true);
  (* a re-fetch maps the page read-only again, as the runtime does *)
  Page_table.map pt ~page:2 ~protection:Page_table.Read_only;
  Alcotest.check fault "re-protected" `Protection
    (Page_table.fault_kind pt ~page:2 ~write:true);
  let pte = Option.get (Page_table.lookup pt ~page:2) in
  check_bool "still present" true pte.Page_table.present;
  check_bool "dirty bit kept" true pte.Page_table.dirty

let test_pt_faults_dont_set_flags () =
  let pt = Page_table.create () in
  Page_table.map pt ~page:3 ~protection:Page_table.Read_only;
  ignore (Page_table.fault_kind pt ~page:3 ~write:true);
  let pte = Option.get (Page_table.lookup pt ~page:3) in
  check_bool "faulting write does not dirty" false pte.Page_table.dirty

let () =
  Alcotest.run "kona_vm"
    [
      ( "page_table",
        [
          Alcotest.test_case "lifecycle" `Quick test_pt_lifecycle;
          Alcotest.test_case "accessed/dirty flags" `Quick test_pt_flags;
          Alcotest.test_case "re-protection" `Quick test_pt_write_protect_again;
          Alcotest.test_case "faults leave flags clean" `Quick
            test_pt_faults_dont_set_flags;
        ] );
    ]
