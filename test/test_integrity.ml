(* Tests for the end-to-end data-integrity subsystem: CRC32C, per-line
   at-rest checksums, delivery sequencing, wire-CRC rejection of torn
   entries, duplicate/reordered-delivery handling, and the runtime's
   scrub-and-repair path restoring a seeded bit-flip bit-for-bit. *)

open Kona
module Units = Kona_util.Units
module Rng = Kona_util.Rng
module Heap = Kona_workloads.Heap
module Crc32c = Kona_util.Crc32c
module Checksums = Kona_integrity.Checksums
module Sequencer = Kona_integrity.Sequencer
module Scrubber = Kona_integrity.Scrubber
module Fault_spec = Kona_faults.Fault_spec
module System = Kona_baselines.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* CRC32C *)

(* Reference vectors: RFC 3720 (iSCSI) appendix B.4 test patterns. *)
let test_crc32c_vectors () =
  check_int "empty" 0 (Crc32c.digest "");
  check_int "'123456789'" 0xE3069283 (Crc32c.digest "123456789");
  check_int "32 zero bytes" 0x8A9136AA (Crc32c.digest (String.make 32 '\000'));
  check_int "32 0xFF bytes" 0x62A8AB43 (Crc32c.digest (String.make 32 '\xff'));
  let inc = String.init 32 Char.chr in
  check_int "32 incrementing bytes" 0x46DD794E (Crc32c.digest inc);
  (* digest_sub agrees with digest of the slice. *)
  let s = "abcdefghijklmnop" in
  check_int "digest_sub" (Crc32c.digest "defgh") (Crc32c.digest_sub s ~pos:3 ~len:5)

let test_crc32c_bit_sensitivity () =
  (* Any single-bit flip must change the digest — the guarantee the
     bit-flip fault relies on for detectability. *)
  let base = String.init 64 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let d0 = Crc32c.digest base in
  for bit = 0 to (64 * 8) - 1 do
    let b = Bytes.of_string base in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    if Crc32c.digest (Bytes.to_string b) = d0 then
      Alcotest.failf "bit %d flip left the CRC unchanged" bit
  done

(* Bit-at-a-time CRC32C straight from the polynomial: the specification
   the table-driven kernel must match. *)
let reference_crc32c b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      crc :=
        if !crc land 1 = 1 then (!crc lsr 1) lxor 0x82F63B78 else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

(* Unaligned starts and every tail length mod 8, with slack bytes after
   the slice so it does not always end at the buffer's end. *)
let prop_crc32c_matches_reference =
  let gen =
    QCheck.Gen.(
      int_bound 15 >>= fun pos ->
      int_bound 300 >>= fun len ->
      int_bound 7 >>= fun slack ->
      map (fun s -> (pos, len, s)) (string_size (return (pos + len + slack))))
  in
  QCheck.Test.make ~name:"slices match bitwise reference" ~count:500
    (QCheck.make
       ~print:(fun (pos, len, s) ->
         Printf.sprintf "pos=%d len=%d %S" pos len s)
       gen)
    (fun (pos, len, s) ->
      let expect = reference_crc32c (Bytes.of_string s) ~pos ~len in
      Crc32c.digest_bytes (Bytes.of_string s) ~pos ~len = expect
      && Crc32c.digest_sub s ~pos ~len = expect)

let test_crc32c_out_of_range () =
  let s = String.make 32 'x' in
  let raises name f =
    check_bool name true
      (try
         ignore (f () : int);
         false
       with Invalid_argument _ -> true)
  in
  List.iter
    (fun (pos, len) ->
      raises (Printf.sprintf "digest_sub pos=%d len=%d" pos len) (fun () ->
          Crc32c.digest_sub s ~pos ~len);
      raises (Printf.sprintf "digest_bytes pos=%d len=%d" pos len) (fun () ->
          Crc32c.digest_bytes (Bytes.of_string s) ~pos ~len))
    [ (-1, 4); (0, -1); (0, 33); (29, 4); (33, 0); (max_int, 1) ]

(* ------------------------------------------------------------------ *)
(* Checksums *)

let test_checksums_record_verify () =
  let store = Bytes.make 512 '\000' in
  let chk = Checksums.create ~capacity:512 in
  check_int "nothing recorded" 0 (Checksums.recorded_count chk);
  (* Unrecorded lines never report corruption. *)
  check_bool "unrecorded is ok" true (Checksums.line_ok chk ~store ~line:0);
  check_int "no corrupt lines" 0
    (List.length (Checksums.corrupt_lines chk ~store ~addr:0 ~len:512));
  Bytes.blit_string (String.make 128 'x') 0 store 64 128;
  Checksums.record chk ~store ~addr:64 ~len:128;
  check_int "two lines recorded" 2 (Checksums.recorded_count chk);
  check_bool "recorded" true (Checksums.recorded chk ~line:1);
  check_bool "clean" true (Checksums.line_ok chk ~store ~line:1);
  (* Corrupt one byte of line 2: only that line reports. *)
  Bytes.set store 130 'y';
  check_int "line 2 corrupt" 1
    (List.length (Checksums.corrupt_lines chk ~store ~addr:0 ~len:512));
  (match Checksums.corrupt_lines chk ~store ~addr:0 ~len:512 with
  | [ addr ] -> check_int "corrupt addr is line-aligned" 128 addr
  | _ -> Alcotest.fail "expected one corrupt line");
  (* Re-recording over the corruption accepts the new bytes as truth. *)
  Checksums.record chk ~store ~addr:128 ~len:64;
  check_int "re-record clears" 0
    (List.length (Checksums.corrupt_lines chk ~store ~addr:0 ~len:512))

(* corrupt_lines against a per-line oracle on a 64-line store, with
   sparse recorded sets and query ranges at arbitrary byte offsets (so
   they start and end inside a line).  The oracle list is ascending and
   line-aligned by construction. *)
let prop_corrupt_lines_matches_oracle =
  let store_bytes = 64 * Units.cache_line in
  QCheck.Test.make ~name:"corrupt_lines = per-line oracle" ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 24) (int_bound 63))
        (list_of_size
           Gen.(0 -- 8)
           (pair (int_bound (store_bytes - 1)) (int_bound 255)))
        (int_bound (store_bytes - 1))
        (int_bound (store_bytes - 1)))
    (fun (recorded, writes, addr, len) ->
      let len = 1 + (len mod (store_bytes - addr)) in
      let store =
        Bytes.init store_bytes (fun i -> Char.chr (((i * 131) + 17) land 0xff))
      in
      let chk = Checksums.create ~capacity:store_bytes in
      List.iter
        (fun line ->
          Checksums.record chk ~store ~addr:(line * Units.cache_line)
            ~len:Units.cache_line)
        recorded;
      List.iter (fun (pos, c) -> Bytes.set store pos (Char.chr c)) writes;
      let first = addr / Units.cache_line
      and last = (addr + len - 1) / Units.cache_line in
      let oracle =
        List.init (last - first + 1) (fun i -> first + i)
        |> List.filter (fun line ->
               Checksums.recorded chk ~line
               && not (Checksums.line_ok chk ~store ~line))
        |> List.map (fun line -> line * Units.cache_line)
      in
      Checksums.corrupt_lines chk ~store ~addr ~len = oracle)

(* ------------------------------------------------------------------ *)
(* Sequencer *)

let test_sequencer_verdicts () =
  let tx = Sequencer.Tx.create () in
  let rx = Sequencer.Rx.create () in
  let obs seq = Sequencer.Rx.observe rx ~stream:7 ~epoch:(Sequencer.Tx.epoch tx) ~seq in
  let next ?(epoch = 0) stream = Sequencer.Tx.next tx ~epoch ~stream in
  let s1 = next 7 in
  check_bool "first stamp adopted" true (obs s1 = Sequencer.Rx.Ok);
  let s2 = next 7 in
  check_bool "in order" true (obs s2 = Sequencer.Rx.Ok);
  check_bool "replay is duplicate" true (obs s2 = Sequencer.Rx.Duplicate);
  check_bool "older is duplicate" true (obs s1 = Sequencer.Rx.Duplicate);
  let _s3 = next 7 in
  let s4 = next 7 in
  check_bool "gap of one" true (obs s4 = Sequencer.Rx.Gap 1);
  (* Streams are independent: another stream adopts its own first stamp. *)
  let t1 = next 9 in
  check_bool "independent stream" true
    (Sequencer.Rx.observe rx ~stream:9 ~epoch:(Sequencer.Tx.epoch tx) ~seq:t1
    = Sequencer.Rx.Ok);
  (* A rising epoch (failover) resets the counters; stragglers from the
     old epoch are stale. *)
  let n1 = next ~epoch:1 7 in
  let old_epoch = Sequencer.Tx.epoch tx - 1 in
  check_int "a rising epoch restarts the stream" 0 n1;
  check_int "an older epoch restarts nothing" 1 (next ~epoch:0 7);
  check_bool "new epoch accepted" true (obs n1 = Sequencer.Rx.Ok);
  check_bool "old epoch stale" true
    (Sequencer.Rx.observe rx ~stream:7 ~epoch:old_epoch ~seq:99
    = Sequencer.Rx.Stale_epoch)

(* ------------------------------------------------------------------ *)
(* Memory node: wire CRCs, duplicates, reordering *)

let line c = String.make Units.cache_line c

let test_receive_log_rejects_torn_lines () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 4) in
  Memory_node.write node ~addr:0 ~data:(line 'a');
  let e = Memory_node.entry ~addr:0 ~data:(line 'b' ^ line 'c') in
  (* Tear the second line after staging: CRCs no longer match the data. *)
  let torn_data = line 'b' ^ line 'z' in
  let torn = { e with Memory_node.data = torn_data } in
  let r = Memory_node.receive_log node [ torn ] in
  check_int "one line applied" 1 r.Memory_node.applied_lines;
  (match r.Memory_node.rejected with
  | [ addr ] -> check_int "second line rejected" Units.cache_line addr
  | _ -> Alcotest.fail "expected one rejected line");
  (* The store kept its old, consistent bytes for the rejected line. *)
  check_string "rejected line untouched" (String.make 1 '\000')
    (String.sub (Memory_node.read node ~addr:Units.cache_line ~len:1) 0 1);
  check_string "clean line applied" "b"
    (String.sub (Memory_node.read node ~addr:0 ~len:1) 0 1)

let test_receive_log_duplicate_and_reorder () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 4) in
  let d seq = { Memory_node.stream = 0; epoch = 0; seq } in
  let e1 = Memory_node.entry ~addr:0 ~data:(line '1') in
  let e2 = Memory_node.entry ~addr:0 ~data:(line '2') in
  let r1 = Memory_node.receive_log ~delivery:(d 1) node [ e1 ] in
  check_bool "first ok" true (r1.Memory_node.verdict = Sequencer.Rx.Ok);
  let r2 = Memory_node.receive_log ~delivery:(d 2) node [ e2 ] in
  check_bool "second ok" true (r2.Memory_node.verdict = Sequencer.Rx.Ok);
  (* Replay of the first shipment: dropped whole — applying it would roll
     the line back to '1'. *)
  let r3 = Memory_node.receive_log ~delivery:(d 1) node [ e1 ] in
  check_bool "replay detected" true (r3.Memory_node.verdict = Sequencer.Rx.Duplicate);
  check_int "replay applied nothing" 0 r3.Memory_node.applied_lines;
  check_string "store kept newest" "2"
    (String.sub (Memory_node.read node ~addr:0 ~len:1) 0 1);
  (* A gap (lost shipment 3) is reported but the newer data applies. *)
  let e4 = Memory_node.entry ~addr:0 ~data:(line '4') in
  let r4 = Memory_node.receive_log ~delivery:(d 4) node [ e4 ] in
  check_bool "gap reported" true (r4.Memory_node.verdict = Sequencer.Rx.Gap 1);
  check_string "gap still applies" "4"
    (String.sub (Memory_node.read node ~addr:0 ~len:1) 0 1)

let test_corrupt_bit_fresh_and_cancel () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 4) in
  Memory_node.write node ~addr:0 ~data:(line 'a');
  check_bool "first flip is fresh" true (Memory_node.corrupt_bit node ~addr:0 ~bit:3 = `Fresh);
  check_int "flip detected at rest" 1
    (List.length (Memory_node.verify_range node ~addr:0 ~len:Units.cache_line));
  check_bool "second flip lands on corrupt line" true
    (Memory_node.corrupt_bit node ~addr:0 ~bit:3 = `Already_corrupt);
  check_int "same-bit double flip cancels" 0
    (List.length (Memory_node.verify_range node ~addr:0 ~len:Units.cache_line))

(* ------------------------------------------------------------------ *)
(* Memory node: the page-sparse store against a flat reference *)

(* The flat store a node used to be: one [Bytes.t] and one
   whole-capacity CRC table, with the node's data-path semantics. *)
module Flat = struct
  type t = { store : Bytes.t; chk : Checksums.t }

  let create ~capacity =
    { store = Bytes.make capacity '\000'; chk = Checksums.create ~capacity }

  let check t addr len =
    if addr < 0 || addr + len > Bytes.length t.store then invalid_arg "Flat"

  let write t ~addr ~data =
    check t addr (String.length data);
    Bytes.blit_string data 0 t.store addr (String.length data);
    Checksums.record t.chk ~store:t.store ~addr ~len:(String.length data)

  let read t ~addr ~len =
    check t addr len;
    Bytes.sub_string t.store addr len

  (* (applied, rejected, healed) of an unstamped shipment *)
  let receive_log t (entries : Memory_node.log_entry list) =
    let applied = ref 0 and rejected = ref [] and healed = ref [] in
    List.iter
      (fun (e : Memory_node.log_entry) ->
        for i = 0 to (String.length e.data / Units.cache_line) - 1 do
          let addr = e.addr + (i * Units.cache_line) in
          let wire =
            Crc32c.digest_sub e.data ~pos:(i * Units.cache_line)
              ~len:Units.cache_line
          in
          if wire <> e.crcs.(i) then rejected := addr :: !rejected
          else begin
            check t addr Units.cache_line;
            let line = addr / Units.cache_line in
            if
              Checksums.recorded t.chk ~line
              && not (Checksums.line_ok t.chk ~store:t.store ~line)
            then healed := addr :: !healed;
            Bytes.blit_string e.data (i * Units.cache_line) t.store addr
              Units.cache_line;
            Checksums.set_line t.chk ~line ~crc:wire;
            incr applied
          end
        done)
      entries;
    (!applied, List.rev !rejected, List.rev !healed)

  let verify_range t ~addr ~len =
    Checksums.corrupt_lines t.chk ~store:t.store ~addr ~len

  let corrupt_bit t ~addr ~bit =
    if addr mod Units.cache_line <> 0 then invalid_arg "Flat.corrupt_bit";
    let line = addr / Units.cache_line in
    let was_clean =
      Checksums.recorded t.chk ~line && Checksums.line_ok t.chk ~store:t.store ~line
    in
    let byte = addr + (bit / 8) in
    Bytes.set t.store byte
      (Char.chr (Char.code (Bytes.get t.store byte) lxor (1 lsl (bit land 7))));
    if was_clean then `Fresh else `Already_corrupt
end

type node_op =
  | Write of int * int * int  (** addr, len, fill seed *)
  | Receive of (int * int * int * bool) list
      (** per entry: line-aligned addr, lines, fill seed, torn *)
  | Read of int * int
  | Peek of int * int
  | Corrupt of int * int  (** line-aligned addr, bit *)
  | Verify of int * int

let fill ~seed len = String.init len (fun i -> Char.chr ((seed + (i * 37)) land 0xff))

let pp_node_op = function
  | Write (a, l, s) -> Printf.sprintf "write %d+%d/%d" a l s
  | Receive es ->
      "receive ["
      ^ String.concat "; "
          (List.map
             (fun (a, n, s, torn) ->
               Printf.sprintf "%d x%d/%d%s" a n s (if torn then " torn" else ""))
             es)
      ^ "]"
  | Read (a, l) -> Printf.sprintf "read %d+%d" a l
  | Peek (a, l) -> Printf.sprintf "peek %d+%d" a l
  | Corrupt (a, b) -> Printf.sprintf "corrupt %d bit %d" a b
  | Verify (a, l) -> Printf.sprintf "verify %d+%d" a l

(* Ranges cluster around page boundaries so they straddle them; a few
   run past the end (both stores must raise), and zero-length reads at
   [capacity] must return [""]. *)
let gen_node_ops capacity =
  let open QCheck.Gen in
  let page = Units.page_size and lines = capacity / Units.cache_line in
  let addr =
    oneof
      [
        int_bound capacity;
        map2
          (fun k d -> max 0 (min capacity ((k * page) + d)))
          (int_bound (capacity / page))
          (int_range (-96) 96);
      ]
  in
  let range =
    addr >>= fun a ->
    frequency
      [
        (8, map (fun l -> (a, l)) (int_bound (min (capacity - a) ((2 * page) + 64))));
        (1, map (fun x -> (a, capacity - a + 1 + x)) (int_bound 64));
        (1, return (capacity, 0));
      ]
  in
  let entry =
    int_bound (lines - 1) >>= fun line ->
    map3
      (fun n seed torn -> (line * Units.cache_line, n, seed, torn))
      (int_range 1 (min 80 (lines - line)))
      (int_bound 255)
      (frequency [ (3, return false); (1, return true) ])
  in
  let op =
    frequency
      [
        (3, map2 (fun (a, l) seed -> Write (a, l, seed)) range (int_bound 255));
        (3, map (fun es -> Receive es) (list_size (int_range 1 3) entry));
        (2, map (fun (a, l) -> Read (a, l)) range);
        (1, map (fun (a, l) -> Peek (a, l)) range);
        ( 2,
          map2
            (fun l b -> Corrupt (l * Units.cache_line, b))
            (int_bound lines) (int_bound 511) );
        (2, map (fun (a, l) -> Verify (a, l)) range);
      ]
  in
  list_size (int_range 1 30) op

type node_outcome =
  | Raised
  | Bytes_of of string
  | Applied of int * int list * int list
  | Lines of int list
  | Flip of [ `Fresh | `Already_corrupt ]

let outcome f = try f () with Invalid_argument _ -> Raised

let prop_sparse_node_matches_flat =
  let page = Units.page_size in
  let capacities = [ page; (3 * page) + 192; 2 * page; 3 * Units.cache_line ] in
  let gen =
    QCheck.Gen.(
      oneofl capacities >>= fun c -> map (fun ops -> (c, ops)) (gen_node_ops c))
  in
  QCheck.Test.make ~name:"sparse node = flat reference" ~count:300
    (QCheck.make
       ~print:(fun (c, ops) ->
         Printf.sprintf "capacity %d: %s" c
           (String.concat "; " (List.map pp_node_op ops)))
       gen)
    (fun (capacity, ops) ->
      let node = Memory_node.create ~id:0 ~capacity in
      let flat = Flat.create ~capacity in
      let entries es =
        List.map
          (fun (addr, n, seed, torn) ->
            let e = Memory_node.entry ~addr ~data:(fill ~seed (n * Units.cache_line)) in
            if not torn then e
            else
              let d = Bytes.of_string e.Memory_node.data in
              Bytes.set d 5 (Char.chr (Char.code (Bytes.get d 5) lxor 0x10));
              { e with Memory_node.data = Bytes.to_string d })
          es
      in
      let step = function
        | Write (addr, len, seed) ->
            let data = fill ~seed len in
            ( outcome (fun () -> Memory_node.write node ~addr ~data; Bytes_of ""),
              outcome (fun () -> Flat.write flat ~addr ~data; Bytes_of "") )
        | Receive es ->
            let es = entries es in
            ( outcome (fun () ->
                  let r = Memory_node.receive_log node es in
                  Applied (r.Memory_node.applied_lines, r.rejected, r.healed)),
              outcome (fun () ->
                  let applied, rejected, healed = Flat.receive_log flat es in
                  Applied (applied, rejected, healed)) )
        | Read (addr, len) ->
            ( outcome (fun () -> Bytes_of (Memory_node.read node ~addr ~len)),
              outcome (fun () -> Bytes_of (Flat.read flat ~addr ~len)) )
        | Peek (addr, len) ->
            ( outcome (fun () -> Bytes_of (Memory_node.peek node ~addr ~len)),
              outcome (fun () -> Bytes_of (Flat.read flat ~addr ~len)) )
        | Corrupt (addr, bit) ->
            ( outcome (fun () -> Flip (Memory_node.corrupt_bit node ~addr ~bit)),
              outcome (fun () -> Flip (Flat.corrupt_bit flat ~addr ~bit)) )
        | Verify (addr, len) ->
            ( outcome (fun () -> Lines (Memory_node.verify_range node ~addr ~len)),
              outcome (fun () -> Lines (Flat.verify_range flat ~addr ~len)) )
      in
      List.for_all
        (fun op ->
          let a, b = step op in
          a = b || QCheck.Test.fail_reportf "%s disagrees" (pp_node_op op))
        ops
      && Memory_node.read node ~addr:capacity ~len:0 = ""
      && Memory_node.read node ~addr:0 ~len:capacity = Bytes.to_string flat.Flat.store
      && Memory_node.verify_range node ~addr:0 ~len:capacity
         = Flat.verify_range flat ~addr:0 ~len:capacity
      (* a flip's verdict exposes every line's recorded state *)
      && List.for_all
           (fun l ->
             let addr = l * Units.cache_line in
             Memory_node.corrupt_bit node ~addr ~bit:0
             = Flat.corrupt_bit flat ~addr ~bit:0)
           (List.init (capacity / Units.cache_line) Fun.id))

(* [create] allocates the page index and nothing else, so a node's
   capacity costs no host memory up front. *)
let test_create_allocates_only_the_index () =
  let capacity = Units.gib 1 in
  let before = Gc.allocated_bytes () in
  let node = Memory_node.create ~id:0 ~capacity in
  let allocated = Gc.allocated_bytes () -. before in
  check_bool
    (Printf.sprintf "allocated %.0f B <= capacity / 256" allocated)
    true
    (allocated <= float_of_int (capacity / 256));
  let last = capacity - Units.cache_line in
  Memory_node.write node ~addr:last ~data:(line 'z');
  check_string "last line round-trips" (line 'z')
    (Memory_node.read node ~addr:last ~len:Units.cache_line);
  check_string "untouched page reads as zeros" (String.make 16 '\000')
    (Memory_node.read node ~addr:(capacity / 2) ~len:16)

(* Only a line [corrupt_bit] touched can fail its CRC, so verifying pages
   no flip has touched allocates nothing; a flipped line is still found. *)
let test_verify_clean_pages_allocates_nothing () =
  let len = 4 * Units.page_size in
  let node = Memory_node.create ~id:0 ~capacity:len in
  Memory_node.write node ~addr:0 ~data:(String.make (2 * Units.page_size) 'x');
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = words (fun () -> ()) in
  let verify = words (fun () -> ignore (Memory_node.verify_range node ~addr:0 ~len)) in
  check_bool
    (Printf.sprintf "verify allocated %.0f words, baseline %.0f" verify baseline)
    true (verify = baseline);
  ignore (Memory_node.corrupt_bit node ~addr:Units.page_size ~bit:3);
  Alcotest.(check (list int))
    "flipped line found" [ Units.page_size ]
    (Memory_node.verify_range node ~addr:0 ~len)

let test_create_validates_capacity () =
  List.iter
    (fun capacity ->
      check_bool
        (Printf.sprintf "capacity %d rejected" capacity)
        true
        (match Memory_node.create ~id:0 ~capacity with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -Units.cache_line; 100; Units.page_size + 1 ]

(* ------------------------------------------------------------------ *)
(* Runtime: end-to-end corruption, scrub-and-repair *)

let make_runtime ?(fmem_pages = 16) ?(replicas = 1) ?(faults = [])
    ?(fault_seed = 42) ?scrub_interval_ns ?(verify_checksums = false) () =
  let controller = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 8));
  Rack_controller.register_node controller
    (Memory_node.create ~id:1 ~capacity:(Units.mib 8));
  let config =
    {
      Runtime.default_config with
      fmem_pages;
      replicas;
      faults;
      fault_seed;
      scrub_interval_ns;
      verify_checksums;
    }
  in
  System.kona ~config ~controller ~heap_capacity:(Units.mib 4) ()

let scribble ?(writes = 8_000) ?(region = Units.kib 512) ?(seed = 5) heap =
  let rng = Rng.create ~seed in
  let base = Heap.alloc heap region in
  for _ = 1 to writes do
    Heap.write_u64 heap
      (base + (Rng.int rng ((region - 8) / 8) * 8))
      (Rng.int rng 1_000_000)
  done

let counter runtime name =
  match List.assoc_opt name (Runtime.integrity_counters runtime) with
  | Some v -> v
  | None -> Alcotest.failf "missing integrity counter %s" name

(* Remote memory equals the heap on every backed page (none may be
   excluded: these tests expect full repair). *)
let assert_no_divergence runtime heap =
  check_bool "nothing unrepairable" true (Runtime.unrepairable_pages runtime = []);
  let c = System.check heap (Runtime.resource_manager runtime) in
  check_int "no page diverged from the heap" 0 c.System.mismatches;
  check_int "no page lost" 0 c.System.lost

let test_scrub_repairs_bit_flips () =
  let faults = Fault_spec.parse_exn "bit-flip:p=1" in
  let runtime, heap =
    make_runtime ~faults ~scrub_interval_ns:50_000 ()
  in
  scribble heap;
  Runtime.drain runtime;
  let armed = counter runtime "integrity.flips_armed" in
  check_bool "flips were injected" true (armed > 0);
  check_int "every armed flip found or healed" armed
    (counter runtime "integrity.flips_found"
    + counter runtime "integrity.healed_overwrite");
  check_bool "scrub repaired corrupt lines" true
    (counter runtime "integrity.repaired" > 0);
  check_int "nothing unrepairable" 0 (counter runtime "integrity.unrepairable");
  check_int "quarantine drained" 0 (counter runtime "integrity.quarantined");
  (* The repair is bit-for-bit: remote bytes equal the heap everywhere. *)
  assert_no_divergence runtime heap

(* Without a replica no flipped line has a clean copy: each is declared
   unrepairable once, and the later sweeps that find it still corrupt
   count it neither as a new flip nor as a new unrepairable line. *)
let test_unrepairable_lines_counted_once () =
  let faults = Fault_spec.parse_exn "bit-flip:p=1" in
  let runtime, heap =
    make_runtime ~replicas:0 ~faults ~scrub_interval_ns:50_000 ()
  in
  scribble heap;
  Runtime.drain runtime;
  let armed = counter runtime "integrity.flips_armed" in
  let found = counter runtime "integrity.flips_found" in
  let unrepairable = counter runtime "integrity.unrepairable" in
  check_bool "flips were injected" true (armed > 0);
  check_int "every armed flip found or healed" armed
    (found + counter runtime "integrity.healed_overwrite");
  check_int "each found flip declared once" found unrepairable;
  (* Every line still corrupt at rest was declared; a declared line the
     workload overwrote since then healed. *)
  let corrupt =
    List.fold_left
      (fun acc id ->
        let node = Rack_controller.node (Runtime.controller runtime) ~id in
        acc
        + List.length
            (Memory_node.verify_range node ~addr:0 ~len:(Memory_node.used node)))
      0 [ 0; 1 ]
  in
  check_bool "corrupt lines were all declared" true
    (corrupt > 0 && corrupt <= unrepairable);
  check_bool "pages declared lost" true
    (Runtime.unrepairable_pages runtime <> []);
  check_bool "the run is degraded" true (Runtime.degraded runtime <> None)

let test_torn_writes_rejected_and_repaired () =
  let faults = Fault_spec.parse_exn "torn-write:p=1" in
  let runtime, heap =
    make_runtime ~faults ~scrub_interval_ns:50_000 ()
  in
  scribble heap;
  Runtime.drain runtime;
  check_bool "torn events detected" true
    (counter runtime "integrity.torn_events" > 0);
  check_bool "torn lines rejected by wire CRC" true
    (counter runtime "integrity.crc_rejects" > 0);
  check_int "quarantine drained" 0 (counter runtime "integrity.quarantined");
  assert_no_divergence runtime heap

let test_dup_deliveries_dropped () =
  let faults = Fault_spec.parse_exn "dup-deliver:p=1" in
  let runtime, heap = make_runtime ~faults () in
  scribble heap;
  Runtime.drain runtime;
  check_bool "duplicates detected" true (counter runtime "seq.duplicates" > 0);
  assert_no_divergence runtime heap

let test_stale_reads_detected () =
  let faults = Fault_spec.parse_exn "stale-read:p=0.5" in
  let runtime, heap =
    make_runtime ~faults ~verify_checksums:true ()
  in
  scribble heap;
  Runtime.drain runtime;
  check_bool "stale reads detected" true
    (counter runtime "integrity.stale_reads" > 0);
  check_int "every injected stale read detected"
    (List.assoc "stale_reads"
       (Kona_faults.Injector.counters (Runtime.injector runtime)))
    (counter runtime "integrity.stale_reads");
  assert_no_divergence runtime heap

let test_integrity_counters_reproducible () =
  let run () =
    let faults =
      Fault_spec.parse_exn "bit-flip:p=0.3;torn-write:p=0.2;dup-deliver:p=0.2"
    in
    let runtime, heap =
      make_runtime ~faults ~fault_seed:7 ~scrub_interval_ns:50_000
        ~verify_checksums:true ()
    in
    scribble heap;
    Runtime.drain runtime;
    Runtime.integrity_counters runtime
  in
  let a = run () and b = run () in
  check_bool "same (plan, seed) gives bit-identical integrity counters" true
    (a = b);
  check_bool "the runs actually injected corruption" true
    (List.assoc "integrity.torn_events" a > 0)

(* ------------------------------------------------------------------ *)

let prop = QCheck_alcotest.to_alcotest ~long:false

let () =
  Alcotest.run "kona_integrity"
    [
      ( "crc32c",
        [
          Alcotest.test_case "reference vectors" `Quick test_crc32c_vectors;
          Alcotest.test_case "single-bit sensitivity" `Quick
            test_crc32c_bit_sensitivity;
          Alcotest.test_case "out-of-range slices raise" `Quick
            test_crc32c_out_of_range;
          prop prop_crc32c_matches_reference;
        ] );
      ( "checksums",
        [
          Alcotest.test_case "record and verify" `Quick
            test_checksums_record_verify;
          prop prop_corrupt_lines_matches_oracle;
        ] );
      ( "sequencer",
        [ Alcotest.test_case "verdicts" `Quick test_sequencer_verdicts ] );
      ( "memory-node",
        [
          Alcotest.test_case "wire CRC rejects torn lines" `Quick
            test_receive_log_rejects_torn_lines;
          Alcotest.test_case "duplicate and reordered deliveries" `Quick
            test_receive_log_duplicate_and_reorder;
          Alcotest.test_case "corrupt_bit arming" `Quick
            test_corrupt_bit_fresh_and_cancel;
          prop prop_sparse_node_matches_flat;
          Alcotest.test_case "create allocates only the index" `Quick
            test_create_allocates_only_the_index;
          Alcotest.test_case "create validates capacity" `Quick
            test_create_validates_capacity;
          Alcotest.test_case "verifying clean pages allocates nothing" `Quick
            test_verify_clean_pages_allocates_nothing;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "repairs seeded bit-flips bit-for-bit" `Quick
            test_scrub_repairs_bit_flips;
          Alcotest.test_case "unrepairable lines counted once" `Quick
            test_unrepairable_lines_counted_once;
          Alcotest.test_case "torn writes rejected and repaired" `Quick
            test_torn_writes_rejected_and_repaired;
          Alcotest.test_case "duplicate deliveries dropped" `Quick
            test_dup_deliveries_dropped;
          Alcotest.test_case "stale reads detected" `Quick
            test_stale_reads_detected;
          Alcotest.test_case "counters reproducible" `Quick
            test_integrity_counters_reproducible;
        ] );
    ]
