(* Tests for the reclustering scan's score-column cache: the packed
   q-gram key kernel, the cache's lifecycle on a cluster, and end-to-end
   agreement of cached scans with a serial replay that scores every pair
   fresh. *)

let alpha = Alphabet.lowercase
let enc = Sequence.of_string alpha

(* ------------------------------------------------------------------ *)
(* Shared key kernel                                                   *)
(* ------------------------------------------------------------------ *)

let test_packed_keys_collision_free () =
  (* Regression for the old int-list keys: every 3-gram over an 8-symbol
     alphabet must get a distinct packed key. *)
  let seen = Hashtbl.create 1024 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      for c = 0 to 7 do
        let key = Sketch.gram_key [| a; b; c |] ~pos:0 ~q:3 in
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
      ( "cache",
        [ Alcotest.test_case "absorb invalidates" `Quick test_cache_dropped_on_absorb ] );
    ]
