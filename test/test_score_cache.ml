(* Tests for the reclustering scan's score-column cache: the packed
   q-gram key kernel, the cache's lifecycle on a cluster, and end-to-end
   agreement of cached scans with a serial replay that scores every pair
   fresh. *)

let alpha = Alphabet.lowercase
let enc = Sequence.of_string alpha

(* ------------------------------------------------------------------ *)
(* q-gram key kernel                                                   *)
(* ------------------------------------------------------------------ *)

let test_packed_keys_collision_free () =
  (* Regression for the old int-list keys: every 3-gram over an 8-symbol
     alphabet must get a distinct packed key. *)
  let seen = Hashtbl.create 1024 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      for c = 0 to 7 do
        let key = Qgram.gram_key [| a; b; c |] ~pos:0 ~q:3 in
        (match Hashtbl.find_opt seen key with
        | Some other ->
            Alcotest.failf "grams %s and %s collide on key %d"
              (String.concat "," (List.map string_of_int [ a; b; c ]))
              other key
        | None -> ());
        Hashtbl.add seen key (String.concat "," (List.map string_of_int [ a; b; c ]))
      done
    done
  done;
  Alcotest.(check int) "512 distinct keys" 512 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let workload () =
  Workload.generate
    {
      Workload.default_params with
      n_sequences = 100;
      avg_length = 120;
      n_clusters = 6;
      contexts_per_cluster = 120;
      concentration = 0.15;
      seed = 7;
    }

(* A fixed threshold that keeps the six planted clusters separate long
   enough for clean clusters to serve their cached score columns. *)
let cfg =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    adjust_threshold = false;
    t_init = exp 10.0;
    max_iterations = 25;
    seed = 3;
  }

let test_cache_matches_fresh_replay () =
  (* The auditor replays every pass serially by tree walk, scoring each
     pair fresh against the evolving models, and raises on any
     membership or assignment difference. Under the fixed threshold most
     pairs sit far from the bar, so a stale cached score rarely flips a
     decision; the adjusting threshold moves the bar into the score
     distribution, where it does. *)
  let db = (workload ()).Workload.db in
  let adjusting = { cfg with adjust_threshold = true; t_init = Cluseq.default_config.t_init } in
  List.iter
    (fun (name, config) ->
      Check.install_auditor ();
      let r =
        Fun.protect ~finally:Check.uninstall_auditor (fun () ->
            try Cluseq.run ~config db
            with Check.Violation msgs ->
              Alcotest.failf "%s threshold: %s" name (String.concat "\n" msgs))
      in
      (* The run must actually have served cached columns, or the replay
         proved nothing about the cache. *)
      let reused =
        List.fold_left
          (fun acc (st : Cluseq.iteration_stats) -> acc + st.census.pairs_reused)
          0 r.history
      in
      Alcotest.(check bool) (name ^ " threshold: cached columns reused") true (reused > 0))
    [ ("fixed", cfg); ("adjusting", adjusting) ]

let same (a : Cluseq.result) (b : Cluseq.result) =
  a.clusters = b.clusters && a.assignments = b.assignments && a.outliers = b.outliers

let test_deterministic_across_domains () =
  let db = (workload ()).Workload.db in
  let saved = Par.default_domains () in
  Fun.protect ~finally:(fun () -> Par.set_default_domains saved) @@ fun () ->
  let run d =
    Par.set_default_domains d;
    Cluseq.run ~config:cfg db
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "run identical at 1 and 4 domains" true (same r1 r4);
  let census (r : Cluseq.result) =
    List.map
      (fun (st : Cluseq.iteration_stats) ->
        (st.census.pairs_scored, st.census.pairs_reused, st.census.dirty_rescores))
      r.history
  in
  Alcotest.(check bool) "census identical at 1 and 4 domains" true (census r1 = census r4)

(* ------------------------------------------------------------------ *)
(* Lazy mid-pass recompilation                                         *)
(* ------------------------------------------------------------------ *)

let compilations = Obs.Metrics.counter "pst.compilations"

(* A clustering with the journal on (and optionally metrics), returning
   the result and the journal entries. *)
let journaled_run ?(metrics = false) ~config db =
  let path = Filename.temp_file "cluseq_lazy" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  if metrics then begin
    Obs.reset ();
    Obs.Metrics.enable ()
  end;
  Obs.Journal.open_file path;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Journal.close ();
        Obs.Metrics.disable ())
      (fun () -> Cluseq.run ~config db)
  in
  match Obs.Journal.read_file path with Ok es -> (r, es) | Error m -> Alcotest.fail m

let is_froze (e : Obs.Journal.entry) = e.j_event = "cluster.froze"

let num name (e : Obs.Journal.entry) =
  match List.assoc_opt name e.j_fields with
  | Some (Bench_json.Num v) -> int_of_float v
  | _ -> Alcotest.failf "%s: %s missing" e.j_event name

(* The [cluster.froze] events the eager policy — compile only at
   creation and before each pass's fan-out — journals: one per seeded
   cluster, plus one per cluster that grew in an iteration, survived its
   consolidation and met a later iteration's compile. *)
let eager_froze_count (r : Cluseq.result) entries =
  let of_event ev = List.filter (fun (e : Obs.Journal.entry) -> e.j_event = ev) entries in
  let dismissed = List.map (fun e -> (num "iter" e, num "cluster" e)) (of_event "cluster.dismissed") in
  let recompiled =
    List.filter
      (fun e ->
        let key = (num "iter" e, num "cluster" e) in
        fst key < r.iterations && not (List.mem key dismissed))
      (of_event "cluster.grew")
  in
  List.length (of_event "cluster.seeded") + List.length recompiled

let test_lazy_recompile_matches_tree_walk () =
  let db = (workload ()).Workload.db in
  let adjusting = { cfg with adjust_threshold = true; t_init = Cluseq.default_config.t_init } in
  List.iter
    (fun (name, config) ->
      let r, entries = journaled_run ~metrics:true ~config db in
      let compiled = Obs.Metrics.counter_value compilations in
      Obs.reset ();
      let walk, walk_entries =
        Psa.set_enabled false;
        Fun.protect ~finally:(fun () -> Psa.set_enabled true) (fun () ->
            journaled_run ~config db)
      in
      let census (r : Cluseq.result) =
        List.map (fun (st : Cluseq.iteration_stats) -> st.census) r.history
      in
      let check what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
      check "assignments" (r.assignments = walk.assignments);
      check "best" (r.best = walk.best);
      check "final_t" (Float.equal r.final_t walk.final_t);
      check "census" (census r = census walk);
      (* The pure tree walk never compiles, so it journals no
         cluster.froze; every other record must match, in order. *)
      let decisions es =
        List.filter_map
          (fun (e : Obs.Journal.entry) ->
            if is_froze e then None else Some (e.j_event, e.j_fields))
          es
      in
      check "journal (minus cluster.froze and ts_ns)" (decisions entries = decisions walk_entries);
      let dirty =
        List.fold_left (fun acc (st : Cluseq.iteration_stats) -> acc + st.census.dirty_rescores) 0
          r.history
      in
      check "dirty clusters were rescored" (dirty > 0);
      let froze = List.length (List.filter is_froze entries) in
      Alcotest.(check int) (name ^ ": cluster.froze count = eager policy's")
        (eager_froze_count r entries) froze;
      (* Under the eager policy every compile is journaled. More
         compiles than cluster.froze events means automata were rebuilt
         mid-pass and dropped by a later absorb in the same pass. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: mid-pass recompiles happen (%d compiles, %d froze)" name compiled
           froze)
        true (compiled > froze))
    [ ("fixed", cfg); ("adjusting", adjusting) ]

let test_absorbed_cluster_recompiles_when_it_pays () =
  let pcfg = { (Pst.default_config ~alphabet_size:26) with significance = 2 } in
  let s = enc "abcabcabcabcabcab" in
  let lbg = Array.make 26 (-.log 26.0) in
  let cl = Cluster.create ~id:0 ~capacity:4 pcfg s in
  Obs.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:(fun () -> Obs.Metrics.disable (); Obs.reset ()) @@ fun () ->
  Cluster.compile cl;
  Alcotest.(check int) "compiled once" 1 (Obs.Metrics.counter_value compilations);
  Cluster.absorb cl ~seq_id:1 s (Cluster.similarity cl ~log_background:lbg s);
  let walk () = Similarity.score (Cluster.pst cl) ~log_background:lbg s in
  let calls = ref 0 in
  while Obs.Metrics.counter_value compilations = 1 && !calls < 1000 do
    let r = Cluster.similarity cl ~log_background:lbg s in
    Alcotest.(check bool) "bit-identical to the tree walk" true (r = walk ());
    incr calls
  done;
  Alcotest.(check int) "recompiled once the walk paid for it" 2
    (Obs.Metrics.counter_value compilations);
  Alcotest.(check bool) "walked first" true (!calls > 1);
  for _ = 1 to 20 do
    Alcotest.(check bool) "bit-identical after recompiling" true
      (Cluster.similarity cl ~log_background:lbg s = walk ())
  done;
  Cluster.compile cl;
  Alcotest.(check int) "no further compile until the next absorb" 2
    (Obs.Metrics.counter_value compilations)

(* ------------------------------------------------------------------ *)
(* Score-column cache lifecycle                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_dropped_on_absorb () =
  let pcfg = { (Pst.default_config ~alphabet_size:26) with significance = 2 } in
  let s = enc "abcabcabcabc" in
  let cl = Cluster.create ~id:0 ~capacity:4 pcfg s in
  let lbg = Array.make 26 (-.log 26.0) in
  let r = Cluster.similarity cl ~log_background:lbg s in
  Cluster.set_score_cache cl [| r |];
  Alcotest.(check bool) "cache installed" true (Cluster.score_cache cl <> None);
  Cluster.absorb cl ~seq_id:1 s r;
  Alcotest.(check bool) "absorb drops the cache" true (Cluster.score_cache cl = None)

(* ------------------------------------------------------------------ *)
(* Drift KL panel cache                                                *)
(* ------------------------------------------------------------------ *)

let test_kl_panel_reuse () =
  let pcfg = { (Pst.default_config ~alphabet_size:26) with significance = 2 } in
  let lbg = Array.make 26 (-.log 26.0) in
  let seeds = [ "abcabcabcabcab"; "abdabdabdabdab"; "xyzxyzxyzxyzxy" ] in
  let clusters = List.mapi (fun id s -> Cluster.create ~id ~capacity:8 pcfg (enc s)) seeds in
  let panel = Cluseq.Kl_panel.create () in
  let check_fresh label kls =
    let rec pairs = function
      | [] -> []
      | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
    in
    List.iter2
      (fun (a, b) kl ->
        let ref_ = Ref_divergence.kl_symmetric (Cluster.pst a) (Cluster.pst b) in
        if Float.abs (kl -. ref_) > 1e-9 *. Float.max 1.0 (Float.abs ref_) then
          Alcotest.failf "%s: pair (%d,%d) %.17g, reference %.17g" label (Cluster.id a)
            (Cluster.id b) kl ref_)
      (pairs clusters) kls
  in
  let first = Cluseq.Kl_panel.values panel clusters in
  Alcotest.(check int) "three pairs computed" 3 (Cluseq.Kl_panel.computed panel);
  check_fresh "cold" first;
  let again = Cluseq.Kl_panel.values panel clusters in
  Alcotest.(check int) "clean pairs reused" 3 (Cluseq.Kl_panel.computed panel);
  Alcotest.(check bool) "reused values bit-identical" true (List.equal Float.equal first again);
  check_fresh "reused" again;
  let grow cl s =
    let s = enc s in
    Cluster.absorb cl ~seq_id:7 s (Cluster.similarity cl ~log_background:lbg s)
  in
  let c0, c2 = (List.nth clusters 0, List.nth clusters 2) in
  grow c2 "xyzxyzxyzabc";
  let after_c2 = Cluseq.Kl_panel.values panel clusters in
  Alcotest.(check int) "both pairs of the grown tree recomputed" 5
    (Cluseq.Kl_panel.computed panel);
  check_fresh "after growing the last cluster" after_c2;
  grow c0 "abcabcxyzxyz";
  let after_c0 = Cluseq.Kl_panel.values panel clusters in
  Alcotest.(check int) "either side's growth invalidates" 7 (Cluseq.Kl_panel.computed panel);
  check_fresh "after growing the first cluster" after_c0;
  Alcotest.(check bool) "values moved with the trees" false
    (List.equal Float.equal first after_c0);
  ignore (Cluseq.Kl_panel.values panel clusters);
  Alcotest.(check int) "clean again: nothing recomputed" 7 (Cluseq.Kl_panel.computed panel)

let test_drift_records_across_domains () =
  let db = (workload ()).Workload.db in
  let saved = Par.default_domains () in
  Fun.protect ~finally:(fun () -> Par.set_default_domains saved) @@ fun () ->
  let drift d =
    Par.set_default_domains d;
    let _, entries = journaled_run ~metrics:true ~config:cfg db in
    List.filter_map
      (fun (e : Obs.Journal.entry) ->
        if e.j_event = "iteration.drift" then
          Some (Bench_json.to_string (Bench_json.Obj e.j_fields))
        else None)
      entries
  in
  let d1 = drift 1 and d4 = drift 4 in
  Alcotest.(check bool) "drift records journaled" true (d1 <> []);
  Alcotest.(check (list string)) "iteration.drift identical at 1 and 4 domains" d1 d4

let () =
  Alcotest.run "score_cache"
    [
      ( "kernel",
        [
          Alcotest.test_case "packed keys collision-free" `Quick
            test_packed_keys_collision_free;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "cache = fresh replay" `Quick test_cache_matches_fresh_replay;
          Alcotest.test_case "domain determinism" `Quick test_deterministic_across_domains;
        ] );
      ( "lazy recompile",
        [
          Alcotest.test_case "results = pure tree walk" `Quick
            test_lazy_recompile_matches_tree_walk;
          Alcotest.test_case "absorbed cluster recompiles" `Quick
            test_absorbed_cluster_recompiles_when_it_pays;
        ] );
      ( "cache",
        [ Alcotest.test_case "absorb invalidates" `Quick test_cache_dropped_on_absorb ] );
      ( "kl panel",
        [
          Alcotest.test_case "pairs reused until a tree grows" `Quick test_kl_panel_reuse;
          Alcotest.test_case "drift records domain-independent" `Quick
            test_drift_records_across_domains;
        ] );
    ]
