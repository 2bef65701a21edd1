(* Every metric the benchmark can print: name, unit and direction. The
   lists mirror BENCHMARK.json at the repository root (a test checks
   that they agree), and [Report] refuses to print a name not declared
   here. *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Measured with tracing off. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "run_s" "s" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "accuracy" "fraction" Higher;
    m "ari" "index" Higher;
  ]

(* Measured in the separate traced run, except the three stream/op
   figures at the top, which the untraced run also prints in its table. *)
let per_layer =
  [
    m "error_rate" "ratio" Lower;
    m "feed_p50_ms" "ms" Lower;
    m "feed_p99_ms" "ms" Lower;
    m "feed_samples" "count" Higher;
    m "seqdb.read_s" "s" Lower;
    m "par.start_s" "s" Lower;
    m "par.domains" "count" Higher;
    m "par.domain_busy_ratio" "ratio" Higher;
    m "par.speedup" "x" Higher;
    m "par.run_1_domain_s" "s" Lower;
    m "par.run_n_domains_s" "s" Lower;
    m "cluseq.generation_s" "s" Lower;
    m "cluseq.reclustering_s" "s" Lower;
    m "cluseq.consolidation_s" "s" Lower;
    m "cluseq.threshold_s" "s" Lower;
    m "cluseq.convergence_s" "s" Lower;
    m "cluseq.unattributed_s" "s" Lower;
    m "cluseq.timed_run_s" "s" Lower;
    m "cluseq.iterations" "count" Lower;
    m "cluseq.converged" "bool" Higher;
    m "cluseq.clusters" "count" Higher;
    m "cluseq.pairs_scored" "count" Lower;
    m "cluseq.pairs_joined" "count" Higher;
    m "cluseq.join_ratio" "ratio" Higher;
    m "cluseq.dirty_rescores" "count" Lower;
    m "cluseq.pairs_reused" "count" Higher;
    m "divergence.kl_ms_per_pair" "ms" Lower;
    m "divergence.kl_pairs" "count" Higher;
    m "obs.journal_records" "count" Lower;
    m "obs.journal_bytes" "bytes" Lower;
    m "obs.journal_dropped" "count" Lower;
    m "pst.insert_ns_per_symbol" "ns" Lower;
    m "pst.insert_symbols" "count" Higher;
    m "pst.final_nodes" "count" Lower;
    m "psa.compile_ms" "ms" Lower;
    m "psa.compile_models" "count" Higher;
    m "psa.scan_ns_per_symbol" "ns" Lower;
    m "psa.scan_symbols" "count" Higher;
    m "psa.table_bytes" "bytes" Lower;
    m "similarity.tree_ns_per_symbol" "ns" Lower;
    m "similarity.tree_symbols" "count" Higher;
    m "online.feed_assigned_p50_ms" "ms" Lower;
    m "online.feed_buffered_p50_ms" "ms" Lower;
    m "online.mining_runs" "count" Lower;
    m "online.mine_s" "s" Lower;
    m "online.assigned" "count" Higher;
    m "online.mined_clusters" "count" Higher;
    m "online.dropped" "count" Lower;
    m "gc.minor_words_per_symbol" "words" Lower;
    m "gc.minor_words" "words" Lower;
    m "gc.symbols" "count" Higher;
    m "gc.major_collections" "count" Lower;
    m "trace.overhead_ratio" "x" Lower;
    m "trace.traced_run_s" "s" Lower;
    m "trace.untraced_run_s" "s" Lower;
  ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun d -> d.name = name) all

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s
