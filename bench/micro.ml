(* Bechamel micro-benchmarks of the core primitives: PST insertion,
   prediction-node walks, the similarity DP, and the baseline distance
   kernels. Complements the macro experiment harness with ns/op numbers. *)

open Bechamel
open Toolkit

let mk_workload () =
  Workload.generate
    {
      Workload.default_params with
      n_sequences = 64;
      avg_length = 200;
      n_clusters = 4;
      contexts_per_cluster = 120;
      concentration = 0.15;
      seed = 77;
    }

let tests () =
  let w = mk_workload () in
  let db = w.db in
  let lbg = Seq_database.log_background db in
  let seqs = Seq_database.sequences db in
  let pst_cfg = { (Pst.default_config ~alphabet_size:26) with significance = 8 } in
  (* A trained cluster PST for the query-side benches. *)
  let trained = Pst.create pst_cfg in
  Array.iteri (fun i s -> if w.labels.(i) = 0 then Pst.insert_sequence trained s) seqs;
  let probe = seqs.(0) in
  let mid = (Array.length probe - 1) / 2 in
  let counter = ref 0 in
  let next_seq () =
    let s = seqs.(!counter mod Array.length seqs) in
    incr counter;
    s
  in
  [
    Test.make ~name:"pst-insert-200sym"
      (Staged.stage (fun () ->
           let t = Pst.create pst_cfg in
           Pst.insert_sequence t (next_seq ())));
    Test.make ~name:"pst-prediction-walk"
      (Staged.stage (fun () -> ignore (Pst.prediction_node trained probe ~lo:0 ~pos:mid)));
    Test.make ~name:"pst-log-prob"
      (Staged.stage (fun () -> ignore (Pst.log_prob trained probe ~lo:0 ~pos:mid)));
    Test.make ~name:"similarity-dp-200sym"
      (Staged.stage (fun () -> ignore (Similarity.score trained ~log_background:lbg (next_seq ()))));
    (* The compiled-automaton pair for the scan above: the same scoring
       on a precompiled PSA (the gated kernel metric; the acceptance
       target is >= 2x faster than similarity-dp-200sym), and the cost
       of compiling the trained tree once. *)
    Test.make ~name:"similarity-psa-200sym"
      (let psa = Psa.compile trained in
       Staged.stage (fun () ->
           ignore (Similarity.score_psa psa ~log_background:lbg (next_seq ()))));
    (* The batched kernel over the whole 64-sequence block (~12.8k
       symbols per run), reusing one scratch — the shape Cluseq
       reclustering drives per (cluster, block) task. Compare per
       symbol against similarity-psa-200sym × 64. *)
    Test.make ~name:"psa-batch-scan"
      (let psa = Psa.compile trained in
       let batch = Psa.batch_create ~capacity:(Array.length seqs) () in
       Staged.stage (fun () ->
           ignore (Similarity.score_batch psa ~log_background:lbg ~batch seqs)));
    Test.make ~name:"psa-compile"
      (Staged.stage (fun () -> ignore (Psa.compile trained)));
    Test.make ~name:"edit-distance-200x200"
      (Staged.stage (fun () -> ignore (Edit_distance.distance (next_seq ()) (next_seq ()))));
    Test.make ~name:"block-edit-200x200"
      (Staged.stage (fun () -> ignore (Block_edit.distance (next_seq ()) (next_seq ()))));
    Test.make ~name:"qgram-profile-200sym"
      (Staged.stage (fun () -> ignore (Qgram.profile ~q:3 (next_seq ()))));
    Test.make ~name:"hmm-loglik-10st-200sym"
      (let m = Hmm.random (Rng.create 5) ~n_states:10 ~n_symbols:26 in
       Staged.stage (fun () -> ignore (Hmm.log_likelihood m (next_seq ()))));
  ]

(* Direct minor-allocation measurement of the two scan shapes, in words
   per scored symbol: the per-sequence score_psa loop (the pre-batch
   reclustering kernel, one result record per pair) against score_batch
   with a reused scratch. Bechamel measures time; Gc.minor_words deltas
   are the honest unit for the off-heap claim. Reported as extra rows so
   `bench --record` folds them into the micro block (they are words, not
   ns — the name says so; the micro compare's 10 ns floor skips them, the
   experiment-level gc.minor_words_per_symbol verdict is the gate). *)
let alloc_rows () =
  let w = mk_workload () in
  let lbg = Seq_database.log_background w.db in
  let seqs = Seq_database.sequences w.db in
  let pst_cfg = { (Pst.default_config ~alphabet_size:26) with significance = 8 } in
  let trained = Pst.create pst_cfg in
  Array.iteri (fun i s -> if w.labels.(i) = 0 then Pst.insert_sequence trained s) seqs;
  let psa = Psa.compile trained in
  let symbols = Array.fold_left (fun acc s -> acc + Array.length s) 0 seqs in
  let words_per_symbol f =
    f ();
    (* warm: one-time allocation (scratch growth) settles *)
    let reps = 50 in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int (reps * symbols)
  in
  let serial =
    words_per_symbol (fun () ->
        Array.iter (fun s -> ignore (Similarity.score_psa psa ~log_background:lbg s)) seqs)
  in
  let batch_scratch = Psa.batch_create ~capacity:(Array.length seqs) () in
  let batched =
    words_per_symbol (fun () ->
        ignore (Similarity.score_batch psa ~log_background:lbg ~batch:batch_scratch seqs))
  in
  [
    ("cluseq/alloc-psa-serial-words-per-symbol", serial);
    ("cluseq/alloc-psa-batch-words-per-symbol", batched);
  ]

(* Runs the suite, prints the table, and returns the (name, ns/run) rows
   so `bench --record` can fold them into the BENCH_*.json under "micro". *)
let run () =
  Printf.printf "\n== Micro-benchmarks (Bechamel, ns/run) ==\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~stabilize:false ~quota:(Time.second 0.25) () in
  let grouped = Test.make_grouped ~name:"cluseq" ~fmt:"%s/%s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ x ] -> x | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter (fun (name, ns) -> Printf.printf "  %-40s %12.0f ns/run\n" name ns) rows;
  let alloc = alloc_rows () in
  Printf.printf "\n== Scan allocation (Gc.minor_words deltas) ==\n%!";
  List.iter
    (fun (name, words) -> Printf.printf "  %-40s %12.4f words/symbol\n" name words)
    alloc;
  rows @ alloc
