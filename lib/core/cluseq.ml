let log_src = Logs.Src.create "cluseq" ~doc:"CLUSEQ clustering iterations"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_runs = Obs.Metrics.counter "cluseq.runs"
let m_iterations = Obs.Metrics.counter "cluseq.iterations"
let g_clusters = Obs.Metrics.gauge "cluseq.clusters"
let g_final_t = Obs.Metrics.gauge "cluseq.final_t"

(* Throughput + model-size accounting, read back by the benchmark
   telemetry (bench --record): work done per run accumulates in
   counters so one experiment's several runs sum naturally; the gauges
   describe the most recent run's final model. *)
let m_sequences = Obs.Metrics.counter "cluseq.sequences"
let m_symbols = Obs.Metrics.counter "cluseq.symbols"
let h_run_seconds = Obs.Metrics.histogram "cluseq.run_seconds"
let m_pst_nodes_built = Obs.Metrics.counter "cluseq.pst.nodes_built"
let m_pst_words_built = Obs.Metrics.counter "cluseq.pst.est_words_built"
let g_pst_nodes = Obs.Metrics.gauge "cluseq.pst.nodes"
let g_pst_words = Obs.Metrics.gauge "cluseq.pst.est_words"

(* Reclustering scan census: how much of the all-pairs scan is useful
   work. These accumulate across iterations and runs; the wasted-pair
   gauge reflects the most recent iteration. The counts themselves are
   maintained unconditionally (plain int arithmetic, no clock reads) so
   per-iteration census records stay bit-identical for any domain count
   and whether or not metrics are enabled — only the counter/gauge
   publication below is gated. *)
let m_pairs_scored = Obs.Metrics.counter "cluseq.scan.pairs_scored"
let m_pairs_joined = Obs.Metrics.counter "cluseq.scan.pairs_joined"
let m_dirty_rescores = Obs.Metrics.counter "cluseq.scan.dirty_rescores"
let m_assignments_changed = Obs.Metrics.counter "cluseq.scan.assignments_changed"
let g_wasted_ratio = Obs.Metrics.gauge "cluseq.scan.wasted_pair_ratio"

(* Score-column cache accounting: pairs served from a clean cluster's
   cached column instead of being rescored. Like the census above it is
   maintained as a plain int inside the pass and only published here. *)
let m_pairs_reused = Obs.Metrics.counter "cluseq.scan.pairs_reused"

(* Clustering-quality drift gauges: one observation per iteration (one
   per cluster for ages, one per live pair for KL, one per joined pair
   for scores). Sum/count recover per-run means for the BENCH [drift]
   block; the same numbers feed the journal's [iteration.drift]
   records. Computed only when metrics or the journal are on, and
   charged to the observer phase, so [reclustering_s] never includes
   them. *)
let h_churn_rate =
  Obs.Metrics.histogram
    ~buckets:[| 0.001; 0.005; 0.01; 0.05; 0.1; 0.25; 0.5; 1.0 |]
    "cluseq.drift.churn_rate"

let h_cluster_age =
  Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |] "cluseq.drift.cluster_age"

let h_intercluster_kl =
  Obs.Metrics.histogram
    ~buckets:[| 0.01; 0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 |]
    "cluseq.drift.intercluster_kl"

let h_member_score =
  Obs.Metrics.histogram
    ~buckets:[| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]
    "cluseq.drift.member_score"

(* Batch scoring granularity: sequences are scored in blocks of this
   many lanes so one compiled automaton streams over a whole block per
   call ({!Psa.score_batch}) instead of being re-entered per sequence.
   Each parallel task owns its own scratch columns; the per-pair
   results are independent of the block split, so any block size yields
   the same bits. 64 lanes keep the scratch (~4 KiB) and the state
   column cache-resident. *)
let scan_block = 64

(* The five algorithm phases of one iteration, in execution order, then
   the observer work (deferred journal writes and drift telemetry);
   indexes into [h_phase] and the per-iteration timing array in [run]. *)
let phase_names =
  [| "generation"; "reclustering"; "consolidation"; "threshold"; "convergence"; "observer" |]

let h_phase =
  Array.map (fun p -> Obs.Metrics.histogram ("cluseq.iter." ^ p ^ "_seconds")) phase_names

type config = {
  k_init : int;
  significance : int;
  t_init : float;
  max_depth : int;
  max_nodes : int;
  p_min : float;
  pruning : Pruning.strategy;
  adjust_threshold : bool;
  consolidate : bool;
  order : Order.t;
  sample_factor : int;
  max_iterations : int;
  min_residual : int option;
  seed : int;
}

let default_config =
  {
    k_init = 1;
    significance = 30;
    t_init = 1.2;
    max_depth = 10;
    max_nodes = 20_000;
    p_min = 1e-3;
    pruning = Pruning.Smallest_count_first;
    adjust_threshold = true;
    consolidate = true;
    order = Order.Fixed;
    sample_factor = 5;
    max_iterations = 50;
    min_residual = None;
    seed = 42;
  }

(* --- runtime audit hooks (the cluseq.check subsystem) ----------------- *)

type recluster_snapshot = {
  snap_db : Seq_database.t;
  snap_log_t : float;
  snap_order : int array;
  snap_before : (int * Pst.t * Bitset.t) array;
}

type auditor = {
  on_recluster :
    recluster_snapshot -> after:(int * Bitset.t) array -> assignments:int list array -> unit;
  on_iteration : iteration:int -> clusters:Cluster.t list -> assignments:int list array -> unit;
}

(* A single ref deref per iteration when no auditor is installed — the
   production path pays nothing beyond that. *)
let auditor : auditor option ref = ref None
let set_auditor a = auditor := a

type phase_timings = {
  generation_s : float;
  reclustering_s : float;
  consolidation_s : float;
  threshold_s : float;
  convergence_s : float;
  observer_s : float;
}

type scan_census = {
  pairs_scored : int;
  pairs_joined : int;
  dirty_rescores : int;
  assignments_changed : int;
  pairs_reused : int;
  score_calls : (int * int) array;
}

let wasted_pair_ratio c =
  if c.pairs_scored = 0 then 0.0
  else float_of_int (c.pairs_scored - c.pairs_joined) /. float_of_int c.pairs_scored

type drift = {
  churn_rate : float;
  mean_cluster_age : float;
  mean_intercluster_kl : float;
  mean_member_score : float;
  scored_members : int;
}

(* Journal events decided inside the timed reclustering scan. Recording
   them is one cons per decision; JSON formatting and file writes happen
   after the phase timer stops, so journaling cannot distort the
   reclustering_s it documents (same discipline as the drift gauges). *)
type pending_event =
  | Ev_joined of int * int * float  (* seq, cluster, deciding log_sim *)
  | Ev_left of int * int * float
  | Ev_grew of int * int * int  (* cluster, fresh joiners, end-of-pass size *)

(* What one cluster's reclustering chain hands the serial merge: its
   log-similarity at every position of the examination order, and its
   counts. A fresh join is what makes a cluster dirty, so
   [fresh_joins > 0] is the dirty flag. *)
type chain = { log_sims : float array; rescores : int; fresh_joins : int }

type iteration_stats = {
  iteration : int;
  new_clusters : int;
  consolidated : int;
  clusters : int;
  unclustered : int;
  threshold : float;
  membership_changes : int;
  census : scan_census;
  timings : phase_timings option;
  drift : drift option;
}

type result = {
  clusters : (int * int array) array;
  assignments : int list array;
  best : (int * float) option array;
  outliers : int list;
  n_clusters : int;
  final_t : float;
  iterations : int;
  history : iteration_stats list;
  pst_stats : (int * Pst.stats) array;
  models : (int * Pst.t) array;
}

let pst_config (cfg : config) ~alphabet_size : Pst.config =
  {
    Pst.alphabet_size;
    max_depth = cfg.max_depth;
    significance = cfg.significance;
    max_nodes = cfg.max_nodes;
    p_min = Float.min cfg.p_min (0.99 /. float_of_int alphabet_size);
    pruning = cfg.pruning;
  }

(* Seed selection (paper Sec. 4.1): greedily pick, among sampled unclustered
   sequences, the one least similar to every cluster chosen so far. The
   similarity sweeps are read-only against frozen PSTs and fan out over
   the domain pool; the greedy argmin and all max-similarity updates run
   on the calling domain in sample order, so the chosen seeds are
   independent of the pool size. *)
let generate_new_clusters cfg db rng ~iter ~next_id ~clusters ~unclustered ~k_n =
  let lbg = Seq_database.log_background db in
  let pool = Array.of_list unclustered in
  if Array.length pool = 0 || k_n <= 0 then []
  else begin
    let par = Par.get_pool () in
    let k_n = min k_n (Array.length pool) in
    let m = min (cfg.sample_factor * k_n) (Array.length pool) in
    let chosen = Rng.sample_without_replacement rng ~k:m ~n:(Array.length pool) in
    let samples = Array.map (fun i -> pool.(i)) chosen in
    (* Compile the frozen models on this domain before fanning out; the
       automata are immutable and shared read-only by the workers. *)
    List.iter Cluster.compile clusters;
    let clusters_arr = Array.of_list clusters in
    (* Each sample's max similarity to the existing clusters, scored
       cluster-major over blocks of samples: one batched automaton pass
       per (cluster, block), folded with [Float.max] in list order. The
       greedy loop only adds similarities to freshly created clusters. *)
    let max_sim =
      let nb = (m + scan_block - 1) / scan_block in
      let blocks =
        Par.map_chunks par ~n:nb (fun b ->
            let lo = b * scan_block in
            let bn = min scan_block (m - lo) in
            let seqs = Array.init bn (fun j -> Seq_database.get db samples.(lo + j)) in
            let batch = Psa.batch_create ~capacity:bn () in
            let acc = Array.make bn neg_infinity in
            Array.iter
              (fun cl ->
                let res = Cluster.similarity_batch cl ~log_background:lbg ~batch seqs in
                for j = 0 to bn - 1 do
                  acc.(j) <- Float.max acc.(j) res.(j).Similarity.log_sim
                done)
              clusters_arr;
            acc)
      in
      Array.init m (fun j -> blocks.(j / scan_block).(j mod scan_block))
    in
    let taken = Array.make m false in
    let new_clusters = ref [] in
    let id = ref next_id in
    let jrn = Obs.Journal.is_enabled () in
    for _ = 1 to k_n do
      (* argmin over remaining samples of max-similarity-to-T *)
      let best = ref (-1) in
      for j = 0 to m - 1 do
        if not taken.(j) && (!best < 0 || max_sim.(j) < max_sim.(!best)) then best := j
      done;
      if !best >= 0 then begin
        let j = !best in
        taken.(j) <- true;
        let seed_seq = Seq_database.get db samples.(j) in
        let cl =
          Cluster.create ~id:!id ~born:iter ~capacity:(Seq_database.n_sequences db)
            (pst_config cfg ~alphabet_size:(Alphabet.size (Seq_database.alphabet db)))
            seed_seq
        in
        if jrn then
          Obs.Journal.emit "cluster.seeded" (fun () ->
              [
                ("iter", Bench_json.Num (float_of_int iter));
                ("cluster", Bench_json.Num (float_of_int !id));
                ("seed_seq", Bench_json.Num (float_of_int samples.(j)));
              ]);
        incr id;
        Cluster.compile cl;
        new_clusters := cl :: !new_clusters;
        (* Update remaining samples' max similarity with the new cluster
           (read-only scores in parallel, element-wise maxima serially):
           one batched pass of the fresh cluster's automaton per block,
           over the still-untaken lanes ([taken] is read-only during the
           sweep). *)
        let sims =
          let nb = (m + scan_block - 1) / scan_block in
          let blocks =
            Par.map_chunks par ~n:nb (fun b ->
                let lo = b * scan_block in
                let bn = min scan_block (m - lo) in
                let out = Array.make bn neg_infinity in
                let pending = Array.make bn 0 in
                let np = ref 0 in
                for j = 0 to bn - 1 do
                  if not taken.(lo + j) then begin
                    pending.(!np) <- j;
                    incr np
                  end
                done;
                if !np > 0 then begin
                  let seqs =
                    Array.init !np (fun p -> Seq_database.get db samples.(lo + pending.(p)))
                  in
                  let batch = Psa.batch_create ~capacity:!np () in
                  let res = Cluster.similarity_batch cl ~log_background:lbg ~batch seqs in
                  for p = 0 to !np - 1 do
                    out.(pending.(p)) <- res.(p).Similarity.log_sim
                  done
                end;
                out)
          in
          Array.init m (fun j -> blocks.(j / scan_block).(j mod scan_block))
        in
        for j' = 0 to m - 1 do
          if (not taken.(j')) && sims.(j') > max_sim.(j') then max_sim.(j') <- sims.(j')
        done
      end
    done;
    List.rev !new_clusters
  end

(* Consolidation (paper Sec. 4.5): examine clusters in ascending size order
   and dismiss any whose members are nearly all covered by other clusters.
   The paper counts coverage by "larger" clusters only; under that literal
   rule the largest cluster can never be dismissed, so the blended
   mega-cluster that forms in early low-threshold iterations would survive
   forever. We count coverage by every not-yet-dismissed cluster instead:
   small sharp clusters can then jointly retire a large blend, while
   identical twins cannot annihilate each other (the first to be dismissed
   stops covering the second). See DESIGN.md. *)
let consolidate ~min_residual ~with_absorbers clusters =
  let arr = Array.of_list clusters in
  let cmp a b =
    let c = compare (Cluster.size a) (Cluster.size b) in
    if c <> 0 then c else compare (Cluster.id a) (Cluster.id b)
  in
  Array.sort cmp arr;
  let n = Array.length arr in
  let kept = Array.make n true in
  let dismissed = ref [] in
  for i = 0 to n - 1 do
    let cover =
      let acc = Bitset.create (Bitset.capacity (Cluster.members arr.(i))) in
      for j = 0 to n - 1 do
        if j <> i && kept.(j) then Bitset.union_into ~dst:acc (Cluster.members arr.(j))
      done;
      acc
    in
    let residual = Bitset.diff_cardinal (Cluster.members arr.(i)) cover in
    if residual < min_residual then begin
      kept.(i) <- false;
      (* Provenance for the journal: which still-alive clusters held the
         dismissed cluster's members at the moment of dismissal. Only
         worth the member intersections when someone is listening. *)
      let absorbers =
        if not with_absorbers then []
        else begin
          let acc = ref [] in
          for j = n - 1 downto 0 do
            if
              j <> i && kept.(j)
              && Bitset.inter_cardinal (Cluster.members arr.(i)) (Cluster.members arr.(j)) > 0
            then acc := Cluster.id arr.(j) :: !acc
          done;
          List.sort compare !acc
        end
      in
      dismissed := (Cluster.id arr.(i), Cluster.size arr.(i), absorbers) :: !dismissed
    end
  done;
  let retained = ref [] in
  for i = n - 1 downto 0 do
    if kept.(i) then retained := arr.(i) :: !retained
  done;
  (* Restore id order for deterministic downstream iteration. *)
  let retained = List.sort (fun a b -> compare (Cluster.id a) (Cluster.id b)) !retained in
  (retained, List.rev !dismissed)

let scaled_config ?(base = default_config) ~expected_cluster_size () =
  if expected_cluster_size < 1 then invalid_arg "Cluseq.scaled_config";
  let c = max 4 (min 30 (expected_cluster_size / 4)) in
  { base with significance = c; min_residual = Some c }

let hard_labels (r : result) ~n =
  Array.init n (fun i ->
      match r.assignments.(i) with
      | [] -> -1
      | joined -> (
          match r.best.(i) with
          | Some (c, _) when List.mem c joined -> c
          | _ -> List.hd joined))

(* Write the reclustering scan's deferred events, in scan order. *)
let journal_pending ~iter ~log_t events =
  let num v = Bench_json.Num v in
  let fi = float_of_int in
  List.iter
    (function
      | Ev_joined (sid, cid, log_sim) ->
          Obs.Journal.emit "seq.joined" (fun () ->
              [
                ("iter", num (fi iter)); ("seq", num (fi sid)); ("cluster", num (fi cid));
                ("log_sim", num log_sim); ("log_t", num log_t);
              ])
      | Ev_left (sid, cid, log_sim) ->
          Obs.Journal.emit "seq.left" (fun () ->
              [
                ("iter", num (fi iter)); ("seq", num (fi sid)); ("cluster", num (fi cid));
                ("log_sim", num log_sim); ("log_t", num log_t);
              ])
      | Ev_grew (cid, fresh, size) ->
          Obs.Journal.emit "cluster.grew" (fun () ->
              [
                ("iter", num (fi iter)); ("cluster", num (fi cid));
                ("fresh", num (fi fresh)); ("size", num (fi size));
              ]))
    events

module Kl_panel = struct
  (* A value stays valid while both clusters still hold the profiles it
     was computed from: [Cluster.profile] is rebuilt only after its tree
     grew, so physical equality is the mutation test. *)
  type entry = { pa : Divergence.profile; pb : Divergence.profile; kl : float }
  type t = { mutable pairs : (int * int, entry) Hashtbl.t; mutable computed : int }

  let create () = { pairs = Hashtbl.create 32; computed = 0 }
  let computed t = t.computed

  let values t panel =
    let next = Hashtbl.create 32 in
    let rec pairs = function
      | [] -> []
      | a :: rest ->
          List.map
            (fun b ->
              let key = (Cluster.id a, Cluster.id b) in
              let pa = Cluster.profile a and pb = Cluster.profile b in
              let e =
                match Hashtbl.find_opt t.pairs key with
                | Some e when e.pa == pa && e.pb == pb -> e
                | _ ->
                    t.computed <- t.computed + 1;
                    { pa; pb; kl = Divergence.profile_kl_symmetric pa pb }
              in
              Hashtbl.replace next key e;
              e.kl)
            rest
          @ pairs rest
    in
    let kls = pairs panel in
    t.pairs <- next;
    kls
end

let run ?(config = default_config) db =
  let cfg = config in
  if cfg.k_init < 1 then invalid_arg "Cluseq.run: k_init must be >= 1";
  (* [not (>= 1.0)] rather than [< 1.0]: the latter lets NaN through. *)
  if not (Float.is_finite cfg.t_init && cfg.t_init >= 1.0) then
    invalid_arg "Cluseq.run: t_init must be a finite value >= 1";
  Obs.Metrics.incr m_runs;
  let run_t0 = if Obs.Metrics.is_enabled () then Timer.now_ns () else 0L in
  Obs.Trace.with_span "cluseq.run" @@ fun () ->
  (* Per-iteration phase durations (seconds), summed over the phase's
     stretches of the iteration (the observer phase has two); only filled
     while metrics are enabled so disabled runs skip the clock reads
     entirely. *)
  let phase_s = Array.make (Array.length phase_names) 0.0 in
  let phase idx f =
    Obs.Trace.with_span phase_names.(idx) (fun () ->
        if Obs.Metrics.is_enabled () then begin
          let t0 = Timer.now_ns () in
          let r = f () in
          phase_s.(idx) <- phase_s.(idx) +. Timer.span_s t0 (Timer.now_ns ());
          r
        end
        else f ())
  in
  let observer = Array.length phase_names - 1 in
  let kl_panel = Kl_panel.create () in
  let n = Seq_database.n_sequences db in
  (* Built once per database (Seq_database caches it) and validated once
     per run — never recomputed or re-checked inside a scoring call. *)
  let lbg = Seq_database.log_background db in
  Similarity.validate_log_background lbg;
  let rng = Rng.create cfg.seed in
  if Obs.Journal.is_enabled () then
    Obs.Journal.emit "run.start" (fun () ->
        [
          ("sequences", Bench_json.Num (float_of_int n));
          ("k_init", Bench_json.Num (float_of_int cfg.k_init));
          ("t_init", Bench_json.Num cfg.t_init);
          ("seed", Bench_json.Num (float_of_int cfg.seed));
          ("max_iterations", Bench_json.Num (float_of_int cfg.max_iterations));
        ]);
  let threshold = Threshold.create ~t_init:cfg.t_init in
  let min_residual = match cfg.min_residual with Some v -> v | None -> cfg.significance in
  let clusters = ref [] in
  let next_id = ref 0 in
  let best = ref (Array.make n None) in
  let assignments = ref (Array.make n []) in
  let prev_memberships : (int * int list) list ref = ref [] in
  let prev_k_n = ref 0 and prev_k_c = ref 0 in
  let history = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < cfg.max_iterations do
    incr iterations;
    Obs.Metrics.incr m_iterations;
    Obs.Trace.with_span "iteration" @@ fun () ->
    let iter = !iterations in
    Array.fill phase_s 0 (Array.length phase_s) 0.0;
    (* --- 1. new cluster generation --- *)
    let fresh =
      phase 0 @@ fun () ->
      let k' = List.length !clusters in
      let unclustered =
        List.filter (fun i -> !assignments.(i) = []) (List.init n Fun.id)
      in
      let k_n =
        if iter = 1 then cfg.k_init
        else begin
          let f =
            if !prev_k_n = 0 then 0.0
            else float_of_int (max (!prev_k_n - !prev_k_c) 0) /. float_of_int !prev_k_n
          in
          let k_n = int_of_float (Float.round (float_of_int k' *. f)) in
          (* f = 0 is a fixed point of the paper's growth formula; keep probing
             with one seed per iteration while unclustered sequences remain (a
             fruitless seed attracts < c exclusive members and is consolidated
             away the same iteration, so termination is unaffected). *)
          if unclustered = [] then 0 else max k_n 1
        end
      in
      let k_n = min k_n (List.length unclustered) in
      generate_new_clusters cfg db rng ~iter ~next_id:!next_id ~clusters:!clusters
        ~unclustered ~k_n
    in
    next_id := !next_id + List.length fresh;
    clusters := !clusters @ fresh;
    (* --- 2. sequence reclustering --- *)
    (* One chain per cluster, fanned out over the domain pool, then a
       serial merge (the dominant cost the paper's Sec. 6 scalability
       figures measure).

       Within a pass, cluster [ci]'s model at the sequence in position
       [pos] of the examination order depends only on which earlier
       positions joined [ci]; whether a sequence joins [ci] depends only
       on that model and the pass-start threshold. Nothing couples two
       clusters but per-sequence bookkeeping. So each task owns one
       cluster and does, in examination order, exactly what the serial
       algorithm does to it: score against the iteration-start model
       (its cached column, or one batched automaton pass per block of
       [scan_block] sequences), record members, absorb fresh joiners,
       and — once its PST has diverged from the scored snapshot
       ("dirty") — rescore against the evolving model. A growing
       cluster still attracts later sequences within the same
       iteration, which the paper's incremental one-pass design depends
       on. Each task mutates only its own cluster and writes one
       log-similarity per position into a float array it owns.

       The merge then walks (position, cluster index) on this domain and
       rebuilds assignments, best clusters, threshold samples, member
       scores and journal events in the serial algorithm's order, so the
       pass is bit-identical for any domain count and any schedule.

       A segment updates a cluster's PST only when the sequence joins it
       afresh: re-inserting stable members every iteration would inflate
       counts without information, making member similarities (and then
       the threshold valley) grow without bound. *)
    let new_best, new_assignments, samples, census0, member_scores, pending_journal =
      phase 1 @@ fun () ->
      (* Hoisted journal/drift gates: one bool each for the whole pass, so
         the disabled path adds no closure allocation per scored pair. *)
      let jrn = Obs.Journal.is_enabled () in
      let drift_on = jrn || Obs.Metrics.is_enabled () in
      let clusters_arr = Array.of_list !clusters in
      let k = Array.length clusters_arr in
      (* A current automaton per cluster before the fan-out: clusters
         untouched since their last compile (or recompiled mid-pass by
         [Cluster.similarity] after their last absorb) keep theirs; any
         later absorbed segment dropped it, so this rebuilds exactly the
         stale ones — on this domain, since it journals. It runs before
         the memberships are cleared, so a [cluster.froze] event reports
         the iteration-start size. *)
      Array.iter Cluster.compile clusters_arr;
      (* Iteration-start memberships, aligned with [clusters_arr]: the
         chains' and the merge's was-member tests index it by cluster
         position. *)
      let prev_arr = Array.map (fun cl -> Bitset.copy (Cluster.members cl)) clusters_arr in
      List.iter Cluster.clear_members !clusters;
      let order = Order.arrange cfg.order rng ~n ~best:!best in
      (* Freeze the audit snapshot before any scoring: iteration-start
         model copies, previous memberships, the threshold and the
         examination order — everything a serial replay needs. *)
      let snapshot =
        match !auditor with
        | None -> None
        | Some _ ->
            Some
              {
                snap_db = db;
                snap_log_t = Threshold.log_t threshold;
                snap_order = Array.copy order;
                snap_before =
                  Array.mapi
                    (fun ci cl ->
                      (Cluster.id cl, Pst.copy (Cluster.pst cl), Bitset.copy prev_arr.(ci)))
                    clusters_arr;
              }
      in
      let log_t = Threshold.log_t threshold in
      (* Score-column reuse: a cluster whose PST was not mutated since
         the last pass would score every sequence bit-identically, so
         its cached column substitutes for recomputation. [absorb]
         drops the cache, so a [Some] here is always current. *)
      let cached = Array.map (fun cl -> Option.is_some (Cluster.score_cache cl)) clusters_arr in
      let blocks =
        Array.init ((n + scan_block - 1) / scan_block) (fun b ->
            let lo = b * scan_block in
            Array.init (min scan_block (n - lo)) (fun j -> Seq_database.get db (lo + j)))
      in
      let chain ci =
        let cl = clusters_arr.(ci) in
        let col =
          ref
            (match Cluster.score_cache cl with
            | Some col -> col
            | None ->
                let batch = Psa.batch_create ~capacity:scan_block () in
                let score seqs = Cluster.similarity_batch cl ~log_background:lbg ~batch seqs in
                Array.concat (Array.to_list (Array.map score blocks)))
        in
        let log_sims = Array.create_float n in
        let dirty = ref false and rescores = ref 0 and fresh_joins = ref 0 in
        Array.iteri
          (fun pos sid ->
            let r : Similarity.result =
              if !dirty then begin
                incr rescores;
                Cluster.similarity cl ~log_background:lbg (Seq_database.get db sid)
              end
              else !col.(sid)
            in
            log_sims.(pos) <- r.log_sim;
            if r.log_sim >= log_t then
              if Bitset.mem prev_arr.(ci) sid then Cluster.add_member cl sid
              else begin
                Cluster.absorb cl ~seq_id:sid (Seq_database.get db sid) r;
                (* The snapshot column is dead from here on. *)
                dirty := true;
                col := [||];
                incr fresh_joins
              end)
          order;
        (* A cluster that stayed clean through the whole pass scored
           against a PST that is still current: its column is the next
           pass's cache. Dirty clusters dropped theirs inside [absorb]. *)
        if not !dirty then Cluster.set_score_cache cl !col;
        { log_sims; rescores = !rescores; fresh_joins = !fresh_joins }
      in
      (* One task per cluster, longest chains first. A cluster that
         starts the pass empty (a fresh seed) absorbs every sequence it
         takes and rescores everything after its first join, so its
         chain is the longest in most passes; the rest go largest-first
         by iteration-start size. The claim order cannot change any
         result. *)
      let claim = Array.init k Fun.id in
      let rank ci =
        match Bitset.cardinal prev_arr.(ci) with 0 -> max_int | size -> size
      in
      Array.stable_sort (fun a b -> compare (rank b) (rank a)) claim;
      let chains = Array.make k { log_sims = [||]; rescores = 0; fresh_joins = 0 } in
      Array.iteri
        (fun i r -> chains.(claim.(i)) <- r)
        (Par.map_chunks (Par.get_pool ()) ~chunks:k ~n:k (fun i -> chain claim.(i)));
      let new_best = Array.make n None in
      let new_assignments = Array.make n [] in
      let member_scores = Array.make k [] in
      let pending = ref [] in
      let samples = ref [] in
      let joined = ref 0 in
      Array.iteri
        (fun pos sid ->
          for ci = 0 to k - 1 do
            let log_sim = chains.(ci).log_sims.(pos) in
            let cid = Cluster.id clusters_arr.(ci) in
            if Float.is_finite log_sim then samples := log_sim :: !samples;
            if log_sim >= log_t then begin
              incr joined;
              if drift_on then member_scores.(ci) <- log_sim :: member_scores.(ci);
              if jrn && not (Bitset.mem prev_arr.(ci) sid) then
                pending := Ev_joined (sid, cid, log_sim) :: !pending;
              new_assignments.(sid) <- cid :: new_assignments.(sid)
            end
            else if jrn && Bitset.mem prev_arr.(ci) sid then
              pending := Ev_left (sid, cid, log_sim) :: !pending;
            match new_best.(sid) with
            | Some (_, b) when b >= log_sim -> ()
            | _ -> if Float.is_finite log_sim then new_best.(sid) <- Some (cid, log_sim)
          done)
        order;
      Array.iteri (fun i l -> new_assignments.(i) <- List.rev l) new_assignments;
      if jrn then
        Array.iteri
          (fun ci cl ->
            let fresh = chains.(ci).fresh_joins in
            if fresh > 0 then
              pending := Ev_grew (Cluster.id cl, fresh, Cluster.size cl) :: !pending)
          clusters_arr;
      (match (!auditor, snapshot) with
      | Some a, Some snap ->
          a.on_recluster snap
            ~after:
              (Array.map
                 (fun cl -> (Cluster.id cl, Bitset.copy (Cluster.members cl)))
                 clusters_arr)
            ~assignments:(Array.copy new_assignments)
      | _ -> ());
      (* Census: every pair of the uncached clusters was scored, every
         pair of the cached ones reused, and dirty clusters' rescores
         add to that. Plain int arithmetic — deterministic for any
         domain count, maintained whether or not metrics are enabled. *)
      let column_calls ci = if cached.(ci) then 0 else n in
      let n_cached = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 cached in
      let total_rescores = Array.fold_left (fun acc c -> acc + c.rescores) 0 chains in
      let census0 =
        {
          pairs_scored = (n * (k - n_cached)) + total_rescores;
          pairs_joined = !joined;
          dirty_rescores = total_rescores;
          assignments_changed = 0 (* filled in after the convergence test *);
          pairs_reused = n * n_cached;
          score_calls =
            Array.mapi
              (fun ci cl -> (Cluster.id cl, column_calls ci + chains.(ci).rescores))
              clusters_arr;
        }
      in
      ( new_best,
        new_assignments,
        !samples,
        census0,
        Array.mapi (fun ci cl -> (Cluster.id cl, member_scores.(ci))) clusters_arr,
        List.rev !pending )
    in
    (* Write the scan's deferred journal events now that its timer has
       stopped (charged to the observer phase) — still this domain,
       still scan order, so the journal is unchanged except for
       timestamps. *)
    if pending_journal <> [] then
      phase observer (fun () ->
          journal_pending ~iter ~log_t:(Threshold.log_t threshold) pending_journal);
    (* --- 3. consolidation --- *)
    let dropped =
      phase 2 @@ fun () ->
      let jrn = Obs.Journal.is_enabled () in
      let retained, dismissed =
        if cfg.consolidate then consolidate ~min_residual ~with_absorbers:jrn !clusters
        else (!clusters, [])
      in
      let dropped = List.length dismissed in
      if jrn then
        List.iter
          (fun (id, size, absorbers) ->
            Obs.Journal.emit "cluster.dismissed" (fun () ->
                [
                  ("iter", Bench_json.Num (float_of_int iter));
                  ("cluster", Bench_json.Num (float_of_int id));
                  ("size", Bench_json.Num (float_of_int size));
                  ( "absorbed_by",
                    Bench_json.Arr
                      (List.map (fun a -> Bench_json.Num (float_of_int a)) absorbers) );
                ]))
          dismissed;
      clusters := retained;
      (* Strip memberships of dismissed clusters. Alive ids go into a
         hash set first: filtering each assignment list against an alive
         *list* is O(n·k²) at scale (every sequence × every assignment ×
         every alive cluster). *)
      if dropped > 0 then begin
        let alive = Hashtbl.create (2 * List.length retained) in
        List.iter (fun cl -> Hashtbl.replace alive (Cluster.id cl) ()) retained;
        Array.iteri
          (fun i l -> new_assignments.(i) <- List.filter (Hashtbl.mem alive) l)
          new_assignments
      end;
      dropped
    in
    (match !auditor with
    | Some a -> a.on_iteration ~iteration:iter ~clusters:!clusters ~assignments:new_assignments
    | None -> ());
    (* --- 4. threshold adjustment --- *)
    phase 3 (fun () ->
        if cfg.adjust_threshold then begin
          let old_t = Threshold.linear_t threshold in
          Threshold.adjust threshold (Array.of_list samples);
          if Obs.Journal.is_enabled () then
            Obs.Journal.emit "threshold.adjusted" (fun () ->
                [
                  ("iter", Bench_json.Num (float_of_int iter));
                  ("old_t", Bench_json.Num old_t);
                  ("new_t", Bench_json.Num (Threshold.linear_t threshold));
                  ("frozen", Bench_json.Bool (Threshold.frozen threshold));
                ])
        end);
    (* --- 5. convergence test --- *)
    let memberships, changes, stable =
      phase 4 @@ fun () ->
      let memberships =
        List.map (fun cl -> (Cluster.id cl, Bitset.to_list (Cluster.members cl))) !clusters
      in
      let changes =
        let prev_tbl = Hashtbl.create 16 in
        List.iter (fun (id, ms) -> Hashtbl.replace prev_tbl id ms) !prev_memberships;
        let changed = Array.make n false in
        List.iter
          (fun (id, ms) ->
            let old = Option.value ~default:[] (Hashtbl.find_opt prev_tbl id) in
            let mark l l' =
              List.iter (fun i -> if not (List.mem i l') then changed.(i) <- true) l
            in
            mark ms old;
            mark old ms)
          memberships;
        (* clusters that disappeared entirely *)
        List.iter
          (fun (id, ms) ->
            if not (List.mem_assoc id memberships) then
              List.iter (fun i -> changed.(i) <- true) ms)
          !prev_memberships;
        Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 changed
      in
      (* The clustering is final only once the threshold has also settled:
         t moves halfway toward the valley each iteration, so an unchanged
         membership under a still-moving t is not yet a fixed point. *)
      let threshold_settled = (not cfg.adjust_threshold) || Threshold.frozen threshold in
      let stable =
        iter > 1 && changes = 0
        && List.length memberships = List.length !prev_memberships
        && threshold_settled
      in
      (memberships, changes, stable)
    in
    prev_memberships := memberships;
    prev_k_n := List.length fresh;
    prev_k_c := dropped;
    best := new_best;
    assignments := new_assignments;
    let unclustered_now =
      Array.fold_left (fun acc l -> if l = [] then acc + 1 else acc) 0 new_assignments
    in
    let census = { census0 with assignments_changed = changes } in
    Obs.Metrics.incr ~by:census.pairs_scored m_pairs_scored;
    Obs.Metrics.incr ~by:census.pairs_joined m_pairs_joined;
    Obs.Metrics.incr ~by:census.dirty_rescores m_dirty_rescores;
    Obs.Metrics.incr ~by:changes m_assignments_changed;
    Obs.Metrics.incr ~by:census.pairs_reused m_pairs_reused;
    Obs.Metrics.set g_wasted_ratio (wasted_pair_ratio census);
    (* --- drift telemetry --- *)
    (* Quality gauges for this iteration, computed outside the algorithm
       phases (charged to the observer phase) and only when someone is
       listening. Every input is a deterministic function of the serial
       model state, so journaled drift records are bit-identical at any
       domain count. *)
    let drift =
      let jrn = Obs.Journal.is_enabled () in
      if not (jrn || Obs.Metrics.is_enabled ()) then None
      else
        phase observer @@ fun () ->
        let live = !clusters in
        let k_live = List.length live in
        let churn = if n = 0 then 0.0 else float_of_int changes /. float_of_int n in
        let ages = List.map (fun cl -> iter - Cluster.born cl) live in
        let mean_age =
          if k_live = 0 then 0.0
          else float_of_int (List.fold_left ( + ) 0 ages) /. float_of_int k_live
        in
        (* Pairwise model divergence is quadratic in clusters, so cap
           the panel at the first 8 live clusters (id order — the
           longest-lived, hence most informative, models). Only pairs
           with a side that grew since the last iteration are computed
           afresh. *)
        let panel = List.filteri (fun i _ -> i < 8) live in
        let kls = Kl_panel.values kl_panel panel in
        let mean_kl =
          match kls with
          | [] -> 0.0
          | _ -> List.fold_left ( +. ) 0.0 kls /. float_of_int (List.length kls)
        in
        let alive = Hashtbl.create (2 * k_live) in
        List.iter (fun cl -> Hashtbl.replace alive (Cluster.id cl) ()) live;
        let live_scores =
          List.filter (fun (id, _) -> Hashtbl.mem alive id) (Array.to_list member_scores)
        in
        let scored_members =
          List.fold_left (fun acc (_, ss) -> acc + List.length ss) 0 live_scores
        in
        let score_sum =
          List.fold_left (fun acc (_, ss) -> List.fold_left ( +. ) acc ss) 0.0 live_scores
        in
        let mean_score =
          if scored_members = 0 then 0.0 else score_sum /. float_of_int scored_members
        in
        Obs.Metrics.observe h_churn_rate churn;
        List.iter (fun a -> Obs.Metrics.observe h_cluster_age (float_of_int a)) ages;
        List.iter (Obs.Metrics.observe h_intercluster_kl) kls;
        List.iter
          (fun (_, ss) -> List.iter (Obs.Metrics.observe h_member_score) ss)
          live_scores;
        if jrn then
          Obs.Journal.emit "iteration.drift" (fun () ->
              let sketch (id, ss) =
                let arr = Array.of_list ss in
                let points =
                  if Array.length arr = 0 then []
                  else
                    Histogram.of_samples ~n_buckets:8 arr
                    |> Histogram.to_points |> Array.to_list
                    |> List.map (fun (c, v) ->
                           Bench_json.Arr [ Bench_json.Num c; Bench_json.Num v ])
                in
                Bench_json.Obj
                  [
                    ("cluster", Bench_json.Num (float_of_int id));
                    ("n", Bench_json.Num (float_of_int (Array.length arr)));
                    ("points", Bench_json.Arr points);
                  ]
              in
              [
                ("iter", Bench_json.Num (float_of_int iter));
                ("clusters", Bench_json.Num (float_of_int k_live));
                ("churn_rate", Bench_json.Num churn);
                ("mean_cluster_age", Bench_json.Num mean_age);
                ("mean_intercluster_kl", Bench_json.Num mean_kl);
                ("mean_member_score", Bench_json.Num mean_score);
                ("score_sketches", Bench_json.Arr (List.map sketch live_scores));
              ]);
        Some
          {
            churn_rate = churn;
            mean_cluster_age = mean_age;
            mean_intercluster_kl = mean_kl;
            mean_member_score = mean_score;
            scored_members;
          }
    in
    if Obs.Metrics.is_enabled () then
      Array.iteri (fun i dt -> Obs.Metrics.observe h_phase.(i) dt) phase_s;
    Log.debug (fun m ->
        m
          "iter %d: new=%d consolidated=%d clusters=%d unclustered=%d t=%.4g changes=%d \
           scored=%d joined=%d wasted=%.3f"
          iter (List.length fresh) dropped (List.length !clusters) unclustered_now
          (Threshold.linear_t threshold) changes census.pairs_scored census.pairs_joined
          (wasted_pair_ratio census));
    history :=
      {
        iteration = iter;
        new_clusters = List.length fresh;
        consolidated = dropped;
        clusters = List.length !clusters;
        unclustered = unclustered_now;
        threshold = Threshold.linear_t threshold;
        membership_changes = changes;
        census;
        timings =
          (if Obs.Metrics.is_enabled () then
             Some
               {
                 generation_s = phase_s.(0);
                 reclustering_s = phase_s.(1);
                 consolidation_s = phase_s.(2);
                 threshold_s = phase_s.(3);
                 convergence_s = phase_s.(4);
                 observer_s = phase_s.(observer);
               }
           else None);
        drift;
      }
      :: !history;
    if stable then converged := true
  done;
  Obs.Metrics.set g_clusters (float_of_int (List.length !clusters));
  Obs.Metrics.set g_final_t (Threshold.linear_t threshold);
  let pst_stats =
    Array.of_list (List.map (fun cl -> (Cluster.id cl, Pst.stats (Cluster.pst cl))) !clusters)
  in
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.incr ~by:n m_sequences;
    Obs.Metrics.incr ~by:(Seq_database.total_symbols db) m_symbols;
    Obs.Metrics.observe h_run_seconds (Timer.span_s run_t0 (Timer.now_ns ()));
    let nodes = Array.fold_left (fun acc (_, (st : Pst.stats)) -> acc + st.nodes) 0 pst_stats in
    let words =
      Array.fold_left (fun acc (_, (st : Pst.stats)) -> acc + st.approx_bytes) 0 pst_stats
      / (Sys.word_size / 8)
    in
    Obs.Metrics.incr ~by:nodes m_pst_nodes_built;
    Obs.Metrics.incr ~by:words m_pst_words_built;
    Obs.Metrics.set g_pst_nodes (float_of_int nodes);
    Obs.Metrics.set g_pst_words (float_of_int words)
  end;
  Log.info (fun m ->
      m "done: %d clusters in %d iterations (final t = %.4g)" (List.length !clusters)
        !iterations (Threshold.linear_t threshold));
  let outliers =
    List.filter (fun i -> !assignments.(i) = []) (List.init n Fun.id)
  in
  if Obs.Journal.is_enabled () then begin
    Obs.Journal.emit "run.end" (fun () ->
        [
          ("clusters", Bench_json.Num (float_of_int (List.length !clusters)));
          ("iterations", Bench_json.Num (float_of_int !iterations));
          ("final_t", Bench_json.Num (Threshold.linear_t threshold));
          ("outliers", Bench_json.Num (float_of_int (List.length outliers)));
        ]);
    (* A run boundary is a natural sync point for offline readers. *)
    Obs.Journal.flush ()
  end;
  {
    clusters =
      Array.of_list
        (List.map
           (fun cl -> (Cluster.id cl, Array.of_list (Bitset.to_list (Cluster.members cl))))
           !clusters);
    assignments = !assignments;
    best = !best;
    outliers;
    n_clusters = List.length !clusters;
    final_t = Threshold.linear_t threshold;
    iterations = !iterations;
    history = List.rev !history;
    pst_stats;
    models =
      Array.of_list (List.map (fun cl -> (Cluster.id cl, Cluster.pst cl)) !clusters);
  }
