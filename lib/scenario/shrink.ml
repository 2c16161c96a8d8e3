(* Delta debugging over op sequences.  Because episodes are bit-exact
   deterministic in their spec, "re-run and compare the first violated
   invariant's name" is a sound oracle: a candidate either reproduces
   the same named failure or it does not — there is no flakiness to
   confound the search. *)

type result = { minimal : Spec.t; attempts : int }

let shrink_op (op : Spec.op) =
  let halve v floor = if v > floor then [ max floor (v / 2) ] else [] in
  match op with
  | Spec.Run { n } -> List.map (fun n -> Spec.Run { n }) (halve n 1)
  | Spec.Flap { dur_ns } ->
      List.map (fun dur_ns -> Spec.Flap { dur_ns }) (halve dur_ns 1_000)
  | Spec.Partition { dur_ns; ids } ->
      List.map (fun dur_ns -> Spec.Partition { dur_ns; ids }) (halve dur_ns 1_000)
  | Spec.Shared { rounds } ->
      List.map (fun rounds -> Spec.Shared { rounds }) (halve rounds 1)
  | Spec.Mwrite { rounds } ->
      List.map (fun rounds -> Spec.Mwrite { rounds }) (halve rounds 1)
  | Spec.Shm_rpc { calls } ->
      List.map (fun calls -> Spec.Shm_rpc { calls }) (halve calls 1)
  | Spec.Publish { pages } ->
      List.map (fun pages -> Spec.Publish { pages }) (halve pages 1)
  | Spec.Quota { tenant; bytes } ->
      List.map (fun bytes -> Spec.Quota { tenant; bytes }) (halve bytes 0)
  | Spec.Crash _ | Spec.Corrupt _ | Spec.Scrub | Spec.Rack _ | Spec.Migrate_epoch ->
      []

let run ?(max_attempts = 400) ~oracle spec =
  match oracle spec with
  | None -> invalid_arg "Shrink.run: spec does not fail the oracle"
  | Some key ->
      let attempts = ref 0 in
      let still_fails candidate =
        !attempts < max_attempts
        && begin
             incr attempts;
             oracle candidate = Some key
           end
      in
      let best = ref spec in
      (* Phase 1: remove op windows, large to small.  On success retry
         the same window size from the left; otherwise halve it. *)
      let try_window len =
        let ops = !best.Spec.ops in
        let n = List.length ops in
        let rec scan start =
          if start + len > n then false
          else
            let cand_ops =
              List.filteri (fun i _ -> i < start || i >= start + len) ops
            in
            let cand = { !best with Spec.ops = cand_ops } in
            if still_fails cand then begin
              best := cand;
              true
            end
            else scan (start + 1)
        in
        scan 0
      in
      let rec minimize len =
        if len >= 1 then
          if try_window len then
            minimize (min len (max 1 (List.length !best.Spec.ops / 2)))
          else minimize (len / 2)
      in
      minimize (max 1 (List.length spec.Spec.ops / 2));
      (* Phase 2: shrink numeric fields of the surviving ops to a
         fixpoint (halving toward each field's floor). *)
      let rec fields () =
        let ops = Array.of_list !best.Spec.ops in
        let improved = ref false in
        Array.iteri
          (fun i op ->
            List.iter
              (fun op' ->
                if not !improved then begin
                  let cand_ops =
                    Array.to_list
                      (Array.mapi (fun j o -> if j = i then op' else o) ops)
                  in
                  let cand = { !best with Spec.ops = cand_ops } in
                  if still_fails cand then begin
                    best := cand;
                    improved := true
                  end
                end)
              (shrink_op op))
          ops;
        if !improved then fields ()
      in
      fields ();
      { minimal = !best; attempts = !attempts }
