(* Tests for the domain pool (lib/par): primitive correctness (chunk
   boundaries, exception propagation, nesting) and the pipeline-wide
   determinism contract — identical clusterings, verdicts, and medoids
   for every domain count. *)

let with_pool ~domains f =
  let pool = Par.create ~domains () in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> f pool)

(* --- primitives ------------------------------------------------------- *)

let test_map_matches_serial () =
  List.iter
    (fun domains ->
      with_pool ~domains @@ fun pool ->
      List.iter
        (fun n ->
          let expected = Array.init n (fun i -> (i * 7) mod 13) in
          let got = Par.map_chunks pool ~n (fun i -> (i * 7) mod 13) in
          Alcotest.(check (array int))
            (Printf.sprintf "domains=%d n=%d" domains n)
            expected got)
        [ 0; 1; 2; 3; 17; 100 ])
    [ 1; 2; 4 ]

let test_chunk_boundaries () =
  (* Explicit chunk counts around the awkward spots: more chunks than
     items, one more item than chunks, exactly equal. Every index must
     appear exactly once regardless. *)
  with_pool ~domains:3 @@ fun pool ->
  List.iter
    (fun (n, chunks) ->
      let hits = Array.make (max n 1) 0 in
      Par.parallel_for pool ~chunks ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      for i = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "n=%d chunks=%d slot %d" n chunks i) 1 hits.(i)
      done)
    [ (5, 8); (8, 5); (9, 8); (8, 8); (1, 4); (64, 7) ]

let test_empty_range () =
  with_pool ~domains:2 @@ fun pool ->
  Par.parallel_for pool ~lo:0 ~hi:0 (fun _ -> Alcotest.fail "body run on empty range");
  Alcotest.(check (array int)) "map on n=0" [||] (Par.map_chunks pool ~n:0 (fun i -> i))

let test_parallel_for_offset_range () =
  with_pool ~domains:2 @@ fun pool ->
  let sum = Atomic.make 0 in
  Par.parallel_for pool ~lo:3 ~hi:10 (fun i -> ignore (Atomic.fetch_and_add sum i));
  Alcotest.(check int) "sum 3..9" 42 (Atomic.get sum)

let test_exception_propagation () =
  List.iter
    (fun domains ->
      with_pool ~domains @@ fun pool ->
      (* Indexes divisible by 3 raise; the reraised exception must be the
         deterministic lowest-chunk-index failure, i.e. index 0. *)
      (match
         Par.map_chunks pool ~n:50 (fun i ->
             if i mod 3 = 0 then failwith (string_of_int i) else i)
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure s ->
          Alcotest.(check string)
            (Printf.sprintf "domains=%d lowest failure wins" domains)
            "0" s);
      (* The pool must survive a failed job. *)
      let got = Par.map_chunks pool ~n:10 (fun i -> i * i) in
      Alcotest.(check (array int)) "pool reusable after failure"
        (Array.init 10 (fun i -> i * i))
        got)
    [ 1; 2; 4 ]

let test_nested_submission_runs_inline () =
  with_pool ~domains:2 @@ fun pool ->
  (* A body that re-enters the pool must not deadlock; the inner job runs
     inline and still produces index-ordered results. *)
  let got =
    Par.map_chunks pool ~n:4 (fun i ->
        Array.fold_left ( + ) 0 (Par.map_chunks pool ~n:5 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested results"
    (Array.init 4 (fun i -> Array.fold_left ( + ) 0 (Array.init 5 (fun j -> (10 * i) + j))))
    got

let test_shutdown () =
  let pool = Par.create ~domains:2 () in
  Par.shutdown pool;
  Par.shutdown pool;
  (* idempotent *)
  match Par.map_chunks pool ~n:3 (fun i -> i) with
  | _ -> Alcotest.fail "job accepted after shutdown"
  | exception Invalid_argument _ -> ()

let test_size_clamping () =
  with_pool ~domains:1 @@ fun p1 ->
  Alcotest.(check int) "size 1" 1 (Par.size p1);
  let p = Par.create ~domains:0 () in
  Alcotest.(check int) "0 clamps to 1" 1 (Par.size p);
  Par.shutdown p

(* --- pipeline determinism --------------------------------------------- *)

let db_and_truth = Gen_common.small_db_and_truth
let config = Gen_common.small_config
let with_domains = Gen_common.with_domains

let test_cluseq_identical_across_domain_counts () =
  let db, truth = Lazy.force db_and_truth in
  let run d = with_domains d (fun () -> Cluseq.run ~config db) in
  let base = run 1 in
  let n = Seq_database.n_sequences db in
  let base_acc =
    let hard = Cluseq.hard_labels base ~n in
    Metrics.accuracy ~truth ~pred_class:(Matching.relabel ~truth ~pred:hard)
  in
  List.iter
    (fun d ->
      let r = run d in
      let tag fmt = Printf.sprintf ("domains=%d: " ^^ fmt) d in
      Alcotest.(check bool) (tag "assignments identical") true (r.assignments = base.assignments);
      Alcotest.(check bool) (tag "clusters identical") true (r.clusters = base.clusters);
      Alcotest.(check bool) (tag "best identical") true (r.best = base.best);
      Alcotest.(check bool) (tag "outliers identical") true (r.outliers = base.outliers);
      Alcotest.(check int) (tag "n_clusters") base.n_clusters r.n_clusters;
      Alcotest.(check int) (tag "iterations") base.iterations r.iterations;
      Alcotest.(check (float 0.0)) (tag "final_t") base.final_t r.final_t;
      Alcotest.(check bool) (tag "history identical") true (r.history = base.history);
      let acc =
        let hard = Cluseq.hard_labels r ~n in
        Metrics.accuracy ~truth ~pred_class:(Matching.relabel ~truth ~pred:hard)
      in
      Alcotest.(check (float 0.0)) (tag "quality headline identical") base_acc acc)
    [ 2; 4 ]

(* The reclustering scan is batched (one automaton over a block of
   lanes, Cluseq.scan_block sequences per call): pin down that the
   batched path is deterministic across domain counts AND that it equals
   the unbatched tree walk — [--no-psa] disables compilation, so every
   score falls back to the per-sequence tree walk, which must produce
   the identical clustering bit for bit. *)
let test_batched_reclustering_identical_across_domains_and_no_psa () =
  let db, _ = Lazy.force db_and_truth in
  let run ~psa d =
    with_domains d (fun () ->
        let saved = Psa.enabled () in
        Psa.set_enabled psa;
        Fun.protect
          ~finally:(fun () -> Psa.set_enabled saved)
          (fun () -> Cluseq.run ~config db))
  in
  let base = run ~psa:true 1 in
  let strip (r : Cluseq.result) =
    (r.clusters, r.assignments, r.best, r.outliers, r.final_t, r.iterations)
  in
  List.iter
    (fun (psa, d, tag) ->
      let r = run ~psa d in
      Alcotest.(check bool) tag true (strip r = strip base))
    [
      (true, 4, "batched @4 domains = batched @1");
      (false, 1, "tree walk @1 = batched @1");
      (false, 4, "tree walk @4 = batched @1");
    ]

(* Reclustering runs one chain per cluster and merges them by position
   in the examination order. [Order.Fixed] is the identity, so a
   position / sequence-id mix-up would pass every test above; these
   runs use orders that are not. Each run is audited (the serial replay
   checks every pass) and journaled, and the whole result record, the
   history (census included) and the journal modulo timestamps must
   match the one-domain run. *)
let audited_run ~config ~domains db =
  with_domains domains @@ fun () ->
  let path = Filename.temp_file "cluseq-par" ".jsonl" in
  Check.install_auditor ();
  Fun.protect
    ~finally:(fun () ->
      Check.uninstall_auditor ();
      Obs.Journal.close ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Journal.open_file path;
      let r =
        try Cluseq.run ~config db
        with Check.Violation msgs ->
          Alcotest.failf "domains=%d: %s" domains (String.concat "\n" msgs)
      in
      Obs.Journal.close ();
      match Obs.Journal.read_file path with
      | Ok es -> (r, List.map (fun (e : Obs.Journal.entry) -> { e with j_ts_ns = 0L }) es)
      | Error m -> Alcotest.fail m)

let check_identical_across_domains ~config db =
  let models (r : Cluseq.result) = Array.map (fun (id, p) -> (id, Pst.to_string p)) r.models in
  let base, base_journal = audited_run ~config ~domains:1 db in
  List.iter
    (fun d ->
      let r, journal = audited_run ~config ~domains:d db in
      let tag s = Printf.sprintf "domains=%d: %s" d s in
      Alcotest.(check bool) (tag "result record") true
        (compare { r with models = [||] } { base with models = [||] } = 0);
      Alcotest.(check bool) (tag "history") true (compare r.history base.history = 0);
      Alcotest.(check bool) (tag "models") true (models r = models base);
      Alcotest.(check bool) (tag "journal") true (journal = base_journal))
    [ 2; 4 ];
  (base, base_journal)

let test_orders_identical_across_domains () =
  let db, _ = Lazy.force db_and_truth in
  List.iter
    (fun order ->
      let r, _ = check_identical_across_domains ~config:{ config with order } db in
      let tag = Order.to_string order ^ ": clusters found" in
      Alcotest.(check bool) tag true (r.n_clusters > 0))
    [ Order.Random; Order.Cluster_based ]

(* One planted family holds over half the database and four others five
   sequences each. Under a fixed threshold, the cluster seeded in the big
   family takes it in one pass: its chain carries nearly all the absorbs
   and rescores while the others finish early. *)
let skewed_db =
  lazy
    (let w =
       Workload.generate
         {
           Workload.default_params with
           n_sequences = 150;
           avg_length = 100;
           n_clusters = 5;
           contexts_per_cluster = 120;
           concentration = 0.15;
           outlier_fraction = 0.0;
           seed = 11;
         }
     in
     let taken = Array.make 5 0 in
     let keep =
       List.filter
         (fun i ->
           let l = w.labels.(i) in
           taken.(l) <- taken.(l) + 1;
           l = 0 || taken.(l) <= 5)
         (List.init (Array.length w.labels) Fun.id)
     in
     Seq_database.subset w.db (Array.of_list keep))

let test_skewed_pass_identical_across_domains () =
  let db = Lazy.force skewed_db in
  let n = Seq_database.n_sequences db in
  let config =
    {
      config with
      order = Order.Random;
      k_init = 3;
      adjust_threshold = false;
      t_init = exp 10.0;
    }
  in
  let _, journal = check_identical_across_domains ~config db in
  (* Fresh joins per cluster in each pass, from [cluster.grew]. *)
  let grew =
    List.filter_map
      (fun (e : Obs.Journal.entry) ->
        let num k =
          match List.assoc_opt k e.j_fields with
          | Some (Bench_json.Num v) -> int_of_float v
          | _ -> Alcotest.failf "cluster.grew without %s" k
        in
        if e.j_event = "cluster.grew" then Some (num "iter", num "fresh") else None)
      journal
  in
  let skewed (iter, fresh) =
    let others =
      List.fold_left (fun acc (i, f) -> if i = iter then acc + f else acc) 0 grew - fresh
    in
    2 * fresh > n && fresh > others
  in
  Alcotest.(check bool) "one chain took most of a pass" true (List.exists skewed grew)

let test_classifier_identical_across_domain_counts () =
  let db, _ = Lazy.force db_and_truth in
  let result = with_domains 1 (fun () -> Cluseq.run ~config db) in
  let clf = Classifier.of_result result db in
  let verdicts d = with_domains d (fun () -> Classifier.classify_all clf db) in
  let base = verdicts 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "verdicts identical at domains=%d" d)
        true
        (verdicts d = base))
    [ 2; 4 ]

let test_kmedoids_identical_across_domain_counts () =
  let points = Array.init 40 (fun i -> float_of_int ((i * 37) mod 97)) in
  let dist i j = Float.abs (points.(i) -. points.(j)) in
  let run d = with_domains d (fun () -> Kmedoids.run (Rng.create 9) ~k:4 ~n:40 dist) in
  let base = run 1 in
  List.iter
    (fun d ->
      let r = run d in
      let tag s = Printf.sprintf "domains=%d: %s" d s in
      Alcotest.(check (array int)) (tag "labels") base.Kmedoids.labels r.Kmedoids.labels;
      Alcotest.(check (array int)) (tag "medoids") base.medoids r.medoids;
      Alcotest.(check (float 0.0)) (tag "cost") base.cost r.cost;
      Alcotest.(check int) (tag "iterations") base.iterations r.iterations)
    [ 2; 4 ]

let test_agglomerative_identical_across_domain_counts () =
  let db, _ = Lazy.force db_and_truth in
  let run d = with_domains d (fun () -> Agglomerative.cluster ~k:3 db) in
  let base = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "labels identical at domains=%d" d)
        base (run d))
    [ 2; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "empty range" `Quick test_empty_range;
          Alcotest.test_case "offset range" `Quick test_parallel_for_offset_range;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested submission inline" `Quick test_nested_submission_runs_inline;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "size clamping" `Quick test_size_clamping;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cluseq run identical" `Quick
            test_cluseq_identical_across_domain_counts;
          Alcotest.test_case "batched reclustering identical (domains × psa)" `Quick
            test_batched_reclustering_identical_across_domains_and_no_psa;
          Alcotest.test_case "classifier batch identical" `Quick
            test_classifier_identical_across_domain_counts;
          Alcotest.test_case "kmedoids identical" `Quick
            test_kmedoids_identical_across_domain_counts;
          Alcotest.test_case "agglomerative identical" `Quick
            test_agglomerative_identical_across_domain_counts;
        ] );
      ( "orders",
        [
          Alcotest.test_case "random / cluster-based identical" `Quick
            test_orders_identical_across_domains;
          Alcotest.test_case "skewed pass identical" `Quick
            test_skewed_pass_identical_across_domains;
        ] );
    ]
