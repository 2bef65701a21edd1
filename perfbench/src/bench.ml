(* One benchmark run: generate the workload's inputs from the seed, write
   them as labeled files, then either

   - the untraced run (--trace 0): set up several times, cluster every
     draw at least once and repeat them for the requested seconds, and
     report the end-to-end metrics; or
   - the traced run (--trace 1): set-up and one clustering under
     benchmark spans with [Obs.Metrics] on, kernel probes on the run's
     own models and, on synth-batch, a 1500-feed [Online] stream; it
     reports the per-layer metrics.

   Everything is measured from outside the program, by timing calls into
   its public functions. The program sees only what
   [Seq_io.read_labeled] + [Seq_io.to_database] give back; labels stay
   here for scoring. *)

type opts = {
  kind : Workloads.kind;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** Input size factor; 1 for the benchmark itself. *)
  workdir : string;  (** Where inputs, journals and spans are written. *)
}

let now = Timer.now_ns
let since t0 = Timer.span_s t0 (now ())

let timed f =
  let t0 = now () in
  let v = f () in
  (v, since t0)

(* --- outcome accounting ------------------------------------------------ *)

(* An operation is one clustering or one [Online.feed]; it fails when it
   raises or when its output check fails. Checks that are not tied to an
   operation (set-up, probes) record a problem without an operation. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally () = { attempted = 0; failed = 0; problems = [] }
let problem t msg = t.problems <- msg :: t.problems

let operation t msgs =
  t.attempted <- t.attempted + 1;
  if msgs <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (problem t) msgs
  end

(* --- inputs ------------------------------------------------------------ *)

(* A run cycles over this many draws, each generated from (seed, index).
   One draw's clustering time varies by half around the workload's
   typical value, and some protein draws collapse to a few clusters, so
   the reported figures pool every draw: quality over all of them, times
   as the median of each draw's median. The counts keep the draws, with
   their output checks, near 40 s (synth-batch's checks cost more); the
   protein draws vary more and get a few more seconds. *)
let draws = function Workloads.Synth_batch -> 24 | Protein_observed -> 40

let draw_seed seed d = (seed * 1000) + d

type dataset = { index : int; path : string; input : Workloads.input; digest : string }

let write opts ~index ~tag (input : Workloads.input) =
  let path =
    Filename.concat opts.workdir
      (Printf.sprintf "%s-seed%d-%s%d.tsv" (Workloads.name opts.kind) opts.seed tag index)
  in
  Seq_io.write_labeled path input.alphabet input.rows;
  { index; path; input; digest = Digest.to_hex (Digest.file path) }

let prepare opts ~count =
  let ds, s =
    timed (fun () ->
        List.init count (fun index ->
            let seed = draw_seed opts.seed index in
            write opts ~index ~tag:"" (Workloads.generate opts.kind ~seed ~scale:opts.scale)))
  in
  Printf.printf "generated %d input files in %.3f s (not timed)\n" count s;
  ds

let input_digest ds =
  Digest.to_hex (Digest.string (String.concat "," (List.map (fun d -> d.digest) ds)))

(* --- set-up ------------------------------------------------------------ *)

let domains () = Domain.recommended_domain_count ()

let load path =
  let alphabet, rows = Seq_io.read_labeled path in
  Seq_io.to_database alphabet rows

let start_pool n =
  Par.set_default_domains n;
  ignore (Par.get_pool ())

(* Shuts the global pool down (a one-domain pool has no workers), so
   the next [start_pool] pays the full start-up again. *)
let stop_pool () = start_pool 1

(* The labels read back must be the planted ones, in order. *)
let check_labels t d labels =
  if Array.map Workloads.class_of_label labels <> d.input.truth then
    problem t (Printf.sprintf "%s: labels read back differ" d.path)

(* Set-up is what a user pays before work starts: reading and parsing
   every input file of the run, and starting the pool. It is repeated
   [setup_rounds] times from a stopped pool; returns the databases and
   the timings. *)
let setup_rounds = 16

let set_up ?spans t ds =
  let record name f = match spans with Some sp -> Spans.record sp name f | None -> f () in
  let dbs = Hashtbl.create 64 in
  let samples =
    Array.init setup_rounds (fun _ ->
        stop_pool ();
        Gc.full_major ();
        let loaded, s =
          timed (fun () ->
              record "setup" (fun () ->
                  let r =
                    record "seqdb.read" (fun () -> List.map (fun d -> (d, load d.path)) ds)
                  in
                  record "par.start" (fun () -> start_pool (domains ()));
                  r))
        in
        List.iter
          (fun (d, (db, labels)) ->
            check_labels t d labels;
            Hashtbl.replace dbs d.index db)
          loaded;
        s)
  in
  (dbs, samples)

(* --- the program's operations ----------------------------------------- *)

let observed = function Workloads.Protein_observed -> true | Synth_batch -> false

let set_metrics on =
  if on then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end
  else Obs.Metrics.disable ()

(* One clustering. protein-observed runs with metrics and the journal
   on, as [cluseq cluster --metrics --journal] does; the journal is
   reopened (truncated) per run. Returns the result, its seconds and the
   GC work of the [Cluseq.run] call alone; with [spans], the call gets a
   span. *)
let cluster ?(metrics = false) ?spans opts ~journal db =
  let config = Workloads.config opts.kind in
  set_metrics (metrics || observed opts.kind);
  if observed opts.kind then Obs.Journal.open_file journal;
  let call () = timed (fun () -> Cluseq.run ~config db) in
  Fun.protect
    ~finally:(fun () -> if observed opts.kind then Obs.Journal.close ())
    (fun () ->
      Obs.Resource.measure (fun () ->
          match spans with Some sp -> Spans.record sp "cluseq.run" call | None -> call ()))

let digest_of_result (r : Cluseq.result) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (id, members) ->
      Printf.bprintf b "%d:" id;
      Array.iter (Printf.bprintf b "%d,") members;
      Buffer.add_char b ';')
    r.clusters;
  Array.iter
    (fun l ->
      List.iter (Printf.bprintf b "%d,") l;
      Buffer.add_char b '|')
    r.assignments;
  Digest.to_hex (Digest.string (Buffer.contents b))

type quality = { correct : int; total : int; ari : float; digest : string }

let quality_of ~truth pred digest =
  let pred_class = Matching.relabel ~truth ~pred in
  let correct = ref 0 in
  Array.iteri (fun i c -> if c = truth.(i) then incr correct) pred_class;
  let ari = Metrics.adjusted_rand_index ~truth ~pred in
  { correct = !correct; total = Array.length truth; ari; digest }

type rep = {
  dataset : int;
  run_s : float;
  peak_heap_mb : float;
  gc : Obs.Resource.gc_delta;
  quality : quality;
}

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Clusters [d] once, checks the result, and returns its timings and
   quality. Outside the timed part, the pool is restarted at [pool]
   domains (default [nproc]) and memory is collected, so every
   clustering starts as a fresh [cluseq cluster] process would, from the
   same live data: where the pool's threads land then varies from
   clustering to clustering, not once per benchmark process. *)
let repetition ?metrics ?spans ?(pool = domains ()) opts t ~journal ~(d : dataset) db =
  stop_pool ();
  start_pool pool;
  Gc.full_major ();
  Obs.Resource.reset_peak ();
  let n = Seq_database.n_sequences db in
  match cluster ?metrics ?spans opts ~journal db with
  | exception e ->
      operation t [ "Cluseq.run raised " ^ Printexc.to_string e ];
      None
  | (r, run_s), gc ->
      let peak_heap_mb = words_to_mb (Obs.Resource.peak_heap_words ()) in
      operation t (Check.result_invariants ~n r);
      let labels = Cluseq.hard_labels r ~n in
      let quality = quality_of ~truth:d.input.truth labels (digest_of_result r) in
      Some (r, { dataset = d.index; run_s; peak_heap_mb; gc; quality })

(* Determinism: every clustering of one draw with the same pool size
   must give the membership digest of the first. [what] names the run. *)
let check_repeat t firsts what (rep : rep) =
  match Hashtbl.find_opt firsts rep.dataset with
  | None -> Hashtbl.add firsts rep.dataset rep.quality
  | Some (q0 : quality) ->
      if q0.digest <> rep.quality.digest then begin
        t.failed <- t.failed + 1;
        problem t (Printf.sprintf "draw %d: membership digest of %s differs" rep.dataset what)
      end

(* --- reporting helpers ------------------------------------------------- *)

let print_header opts ~rev ~digest ~count =
  Printf.printf
    "perfbench workload=%s seed=%d trace=%d seconds=%g domains=%d ocaml=%s rev=%s draws=%d \
     input_digest=%s\n"
    (Workloads.name opts.kind) opts.seed (Bool.to_int opts.trace) opts.seconds (domains ())
    Sys.ocaml_version rev count digest

let error_rate_entry report t =
  Report.add report "error_rate"
    (if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted)
    ~note:(Printf.sprintf "%d failed / %d attempted" t.failed t.attempted)

let zero report names =
  List.iter (fun n -> Report.add report n 0.0 ~note:"n/a on this workload") names

(* --- untraced run ------------------------------------------------------ *)

let untraced opts ~rev =
  let t = tally () and report = Report.create () in
  let draws = draws opts.kind in
  let ds = prepare opts ~count:draws in
  print_header opts ~rev ~digest:(input_digest ds) ~count:draws;
  Obs.Resource.start_sampler ();
  let dbs, setup_samples = set_up t ds in
  let journal = Filename.concat opts.workdir (Workloads.name opts.kind ^ "-journal.jsonl") in
  let firsts = Hashtbl.create draws and reps = ref [] in
  (* Every draw runs once and the first one twice, so the digest check
     always has a repeat; further runs repeat the draws in turn while the
     next one is expected to end within the requested seconds. *)
  let t0 = now () and i = ref 0 in
  while !i <= draws || since t0 *. float_of_int (!i + 1) /. float_of_int !i <= opts.seconds do
    let d = List.nth ds (!i mod draws) in
    (match repetition opts t ~journal ~d (Hashtbl.find dbs d.index) with
    | None -> ()
    | Some (_, rep) ->
        Printf.printf "  run %d draw %d: %.6f s, %.1f MB, %d/%d correct, ari %.4f\n%!" !i
          d.index rep.run_s rep.peak_heap_mb rep.quality.correct rep.quality.total
          rep.quality.ari;
        check_repeat t firsts "a repeated run" rep;
        reps := rep :: !reps);
    incr i
  done;
  Report.add_median report "setup_s" setup_samples
    ~note:(Printf.sprintf "read + parse %d files + pool start" draws);
  if !reps <> [] then begin
    let per_draw f =
      Array.of_list
        (List.filter_map
           (fun d ->
             match List.filter (fun r -> r.dataset = d.index) !reps with
             | [] -> None
             | rs -> Some (Quant.median (Array.of_list (List.map f rs))))
           ds)
    in
    let note =
      Printf.sprintf "median over %d draws of each one's median; %d runs" draws
        (List.length !reps)
    in
    Report.add_median report "run_s" (per_draw (fun r -> r.run_s)) ~note;
    Report.add_median report "peak_heap_mb" (per_draw (fun r -> r.peak_heap_mb)) ~note;
    let qs = List.filter_map (fun d -> Hashtbl.find_opt firsts d.index) ds in
    let correct = List.fold_left (fun a q -> a + q.correct) 0 qs
    and total = List.fold_left (fun a q -> a + q.total) 0 qs in
    Report.add report "accuracy"
      (float_of_int correct /. float_of_int total)
      ~note:
        (Printf.sprintf "%d correct / %d sequences over %d draws" correct total
           (List.length qs));
    Report.add report "ari"
      (List.fold_left (fun a q -> a +. q.ari) 0.0 qs /. float_of_int (List.length qs))
      ~note:(Printf.sprintf "mean over %d draws" (List.length qs))
  end;
  error_rate_entry report t;
  (report, t)

(* --- kernel probes ----------------------------------------------------- *)

(* Times the layers that have no public timing boundary inside
   [Cluseq.run], on the run's own models and inputs: PST insertion into
   fresh trees with the run's PST config, PSA compilation per model, the
   batch PSA scan in 64-sequence blocks against the tree walk on the same
   pairs (which must agree bit for bit), and the symmetric KL over the
   drift panel (the first 8 models by id). [members] gives each model's
   member sequences. *)
let probes report t sp ~pst_config ~models ~members db =
  let timed name f = timed (fun () -> Spans.record sp name f) in
  let get = Seq_database.get db in
  let seqs = Seq_database.sequences db and lbg = Seq_database.log_background db in
  let ins_symbols =
    Array.fold_left
      (fun a (_, m) -> Array.fold_left (fun a i -> a + Array.length (get i)) a m)
      0 members
  in
  let (), ins_s =
    timed "probe.pst_insert" (fun () ->
        Array.iter
          (fun (_, m) ->
            let p = Pst.create pst_config in
            Array.iter (fun i -> Pst.insert_sequence p (get i)) m)
          members)
  in
  Report.add report "pst.insert_ns_per_symbol"
    (1e9 *. ins_s /. float_of_int (max 1 ins_symbols))
    ~note:(Printf.sprintf "%d symbols into %d fresh trees" ins_symbols (Array.length members));
  Report.add report "pst.insert_symbols" (float_of_int ins_symbols);
  let models = Array.copy models in
  Array.sort (fun (a, _) (b, _) -> compare a b) models;
  let k = Array.length models in
  Report.add report "pst.final_nodes"
    (float_of_int (Array.fold_left (fun a (_, p) -> a + Pst.n_nodes p) 0 models))
    ~note:(Printf.sprintf "over %d models" k);
  let psas, compile_s =
    timed "probe.psa_compile" (fun () -> Array.map (fun (_, p) -> Psa.compile p) models)
  in
  Report.add report "psa.compile_ms"
    (1000.0 *. compile_s /. float_of_int (max 1 k))
    ~note:(Printf.sprintf "mean over %d models" k);
  Report.add report "psa.compile_models" (float_of_int k);
  Report.add report "psa.table_bytes"
    (float_of_int (Array.fold_left (fun a p -> a + Psa.table_bytes p) 0 psas));
  let n = Array.length seqs in
  let pair_symbols = k * Seq_database.total_symbols db in
  let block = 64 in
  let batch = Psa.batch_create ~capacity:block () in
  let scores = Array.make_matrix k n 0.0 in
  let (), scan_s =
    timed "probe.psa_scan" (fun () ->
        Array.iteri
          (fun m psa ->
            let lo = ref 0 in
            while !lo < n do
              let len = min block (n - !lo) in
              let chunk = Array.sub seqs !lo len in
              let rs = Similarity.score_batch psa ~log_background:lbg ~batch chunk in
              Array.iteri
                (fun j (r : Similarity.result) -> scores.(m).(!lo + j) <- r.log_sim)
                rs;
              lo := !lo + len
            done)
          psas)
  in
  Report.add report "psa.scan_ns_per_symbol"
    (1e9 *. scan_s /. float_of_int (max 1 pair_symbols))
    ~note:(Printf.sprintf "%d pairs, %d symbols" (k * n) pair_symbols);
  Report.add report "psa.scan_symbols" (float_of_int pair_symbols);
  let tree = Array.make_matrix k n 0.0 in
  let (), tree_s =
    timed "probe.tree_walk" (fun () ->
        Array.iteri
          (fun m (_, p) ->
            Array.iteri
              (fun j s -> tree.(m).(j) <- (Similarity.score p ~log_background:lbg s).log_sim)
              seqs)
          models)
  in
  Report.add report "similarity.tree_ns_per_symbol"
    (1e9 *. tree_s /. float_of_int (max 1 pair_symbols))
    ~note:(Printf.sprintf "same %d pairs" (k * n));
  Report.add report "similarity.tree_symbols" (float_of_int pair_symbols);
  let mismatches = ref 0 in
  Array.iteri
    (fun m row ->
      Array.iteri (fun j v -> if not (Float.equal v tree.(m).(j)) then incr mismatches) row)
    scores;
  if !mismatches > 0 then
    problem t (Printf.sprintf "PSA batch scan and tree walk disagree on %d pairs" !mismatches);
  let panel = Array.sub models 0 (min 8 k) in
  let pairs = ref [] in
  Array.iteri
    (fun i (_, a) ->
      Array.iteri (fun j (_, b) -> if i < j then pairs := (a, b) :: !pairs) panel)
    panel;
  let n_pairs = List.length !pairs in
  let (), kl_s =
    timed "probe.kl" (fun () ->
        List.iter (fun (a, b) -> ignore (Divergence.kl_symmetric a b)) !pairs)
  in
  Report.add report "divergence.kl_ms_per_pair"
    (if n_pairs = 0 then 0.0 else 1000.0 *. kl_s /. float_of_int n_pairs)
    ~note:(Printf.sprintf "%d pairs over the first %d models" n_pairs (Array.length panel));
  Report.add report "divergence.kl_pairs" (float_of_int n_pairs)

(* --- traced run -------------------------------------------------------- *)

let phase_names = [ "generation"; "reclustering"; "consolidation"; "threshold"; "convergence" ]

let sum_timings (r : Cluseq.result) =
  List.fold_left
    (fun acc (h : Cluseq.iteration_stats) ->
      match h.timings with
      | None -> acc
      | Some p ->
          List.map2 ( +. ) acc
            [
              p.generation_s;
              p.reclustering_s;
              p.consolidation_s;
              p.threshold_s;
              p.convergence_s;
            ])
    [ 0.; 0.; 0.; 0.; 0. ] r.history

(* The phase split and scan census of one traced clustering. The phases
   plus [cluseq.unattributed_s] add up to the bench-timed
   [cluseq.timed_run_s]. *)
let cluseq_entries report opts (r : Cluseq.result) ~run_s =
  let f = float_of_int in
  let phases = sum_timings r in
  List.iter2 (fun name v -> Report.add report ("cluseq." ^ name ^ "_s") v) phase_names phases;
  let in_phases = List.fold_left ( +. ) 0.0 phases in
  Report.add report "cluseq.unattributed_s" (run_s -. in_phases)
    ~note:(Printf.sprintf "%.6f s timed - %.6f s in phases" run_s in_phases);
  Report.add report "cluseq.timed_run_s" run_s;
  let sum g =
    List.fold_left (fun a (h : Cluseq.iteration_stats) -> a + g h.census) 0 r.history
  in
  let scored = sum (fun c -> c.pairs_scored) and joined = sum (fun c -> c.pairs_joined) in
  Report.add report "cluseq.iterations" (f r.iterations);
  Report.add report "cluseq.converged"
    (if r.iterations < (Workloads.config opts.kind).max_iterations then 1.0 else 0.0);
  Report.add report "cluseq.clusters" (f r.n_clusters);
  Report.add report "cluseq.pairs_scored" (f scored);
  Report.add report "cluseq.pairs_joined" (f joined);
  Report.add report "cluseq.join_ratio"
    (if scored = 0 then 0.0 else f joined /. f scored)
    ~note:(Printf.sprintf "%d joined / %d scored" joined scored);
  Report.add report "cluseq.dirty_rescores" (f (sum (fun c -> c.dirty_rescores)));
  Report.add report "cluseq.pairs_reused" (f (sum (fun c -> c.pairs_reused)))

(* The PST config [Cluseq.run] gives its clusters (not exported); the
   run's final models are checked against it. *)
let pst_config_of (c : Cluseq.config) ~alphabet_size =
  {
    Pst.alphabet_size;
    max_depth = c.max_depth;
    significance = c.significance;
    max_nodes = c.max_nodes;
    p_min = Float.min c.p_min (0.99 /. float_of_int alphabet_size);
    pruning = c.pruning;
  }

let span_ms (s : Spans.span) = Int64.to_float (Spans.duration_ns s) /. 1e6

(* The online layer, measured on synth-batch's traced run: one feed
   loop over the 1500-sequence stream, one caller in a closed loop, each
   [Online.feed] in a span tagged by its outcome. A feed that returns a
   cluster id must name a live cluster, and [stats.fed] must count it. *)
let online_entries report t sp opts =
  let input = Workloads.stream ~seed:(draw_seed opts.seed 0) ~scale:opts.scale in
  let d = write opts ~index:0 ~tag:"stream" input in
  let db, labels = Spans.record sp "seqdb.read_stream" (fun () -> load d.path) in
  check_labels t d labels;
  let online =
    Online.create ~config:Workloads.stream_config
      ~alphabet_size:(Alphabet.size (Seq_database.alphabet db)) ()
  in
  set_metrics true;
  let h_mine = Obs.Metrics.histogram "online.mine_seconds" in
  let n = Seq_database.n_sequences db in
  let pred = Array.make n (-1) in
  let feed i =
    let mined0 = Obs.Metrics.histogram_count h_mine in
    let r =
      Spans.record sp "online.feed"
        ~tag:(function
          | Error _ -> "raised"
          | Ok (Some _) -> "assigned"
          | Ok None ->
              if Obs.Metrics.histogram_count h_mine > mined0 then "mined" else "buffered")
        (fun () -> try Ok (Online.feed online (Seq_database.get db i)) with e -> Error e)
    in
    let fed = (Online.stats online).fed in
    operation t
      ((match r with
       | Error e -> [ "Online.feed raised " ^ Printexc.to_string e ]
       | Ok None -> []
       | Ok (Some id) ->
           pred.(i) <- id;
           if List.mem_assoc id (Online.cluster_sizes online) then []
           else [ Printf.sprintf "feed %d: unknown cluster %d" i id ])
      @ if fed = i + 1 then [] else [ Printf.sprintf "feed %d: stats.fed = %d" i fed ])
  in
  Spans.record sp "online.stream" (fun () ->
      for i = 0 to n - 1 do
        feed i
      done);
  let spans = List.filter (fun (s : Spans.span) -> s.name = "online.feed") (Spans.spans sp) in
  let ms = Array.of_list (List.map span_ms spans) in
  let tagged tag =
    Array.of_list
      (List.filter_map
         (fun (s : Spans.span) -> if s.tag = tag then Some (span_ms s) else None)
         spans)
  in
  let p50 a = if a = [||] then 0.0 else Quant.median a in
  Report.add report "feed_p50_ms" (Quant.median ms) ~note:(Printf.sprintf "%d feeds" n);
  (match Quant.tail ms with
  | Some top when Quant.beyond ~n 990 >= 10 ->
      Report.add report "feed_p99_ms" (Quant.percentile ms 990)
        ~note:
          (Printf.sprintf "%d feeds, %d beyond p99; highest percentile with 10 beyond: %s" n
             (Quant.beyond ~n 990) top.label)
  | _ -> Printf.printf "  (feed_p99_ms omitted: %d feeds leave fewer than 10 beyond p99)\n" n);
  Report.add report "feed_samples" (float_of_int n);
  let assigned = tagged "assigned" and buffered = tagged "buffered" in
  Report.add report "online.feed_assigned_p50_ms" (p50 assigned)
    ~note:(Printf.sprintf "%d feeds" (Array.length assigned));
  Report.add report "online.feed_buffered_p50_ms" (p50 buffered)
    ~note:(Printf.sprintf "%d feeds, excluding %d that mined" (Array.length buffered)
             (Array.length (tagged "mined")));
  Report.add report "online.mining_runs" (float_of_int (Obs.Metrics.histogram_count h_mine));
  Report.add report "online.mine_s" (Obs.Metrics.histogram_sum h_mine)
    ~note:"sum of online.mine_seconds";
  let st = Online.stats online in
  Report.add report "online.assigned" (float_of_int st.assigned);
  Report.add report "online.mined_clusters" (float_of_int st.mined_clusters);
  Report.add report "online.dropped" (float_of_int st.dropped_outliers);
  let q = quality_of ~truth:d.input.truth pred "" in
  Printf.printf "  stream: %d feeds, %d/%d correct at feed time, ari %.4f, %d clusters\n" n
    q.correct q.total q.ari st.n_clusters

let online_names =
  [
    "feed_p50_ms"; "feed_p99_ms"; "feed_samples"; "online.feed_assigned_p50_ms";
    "online.feed_buffered_p50_ms"; "online.mining_runs"; "online.mine_s"; "online.assigned";
    "online.mined_clusters"; "online.dropped";
  ]

let traced opts ~rev =
  let t = tally () and report = Report.create () in
  let name = Workloads.name opts.kind in
  let draws = draws opts.kind in
  let ds = prepare opts ~count:draws in
  print_header opts ~rev ~digest:(input_digest ds) ~count:draws;
  Obs.Resource.start_sampler ();
  let sp = Spans.create ~workload:name in
  let dbs, _ = set_up ~spans:sp t ds in
  let span_median n =
    Quant.median
      (Array.of_list
         (List.filter_map
            (fun (s : Spans.span) -> if s.name = n then Some (span_ms s /. 1000.0) else None)
            (Spans.spans sp)))
  in
  let note = Printf.sprintf "median of %d set-ups of %d files" setup_rounds draws in
  Report.add report "seqdb.read_s" (span_median "seqdb.read") ~note;
  Report.add report "par.start_s" (span_median "par.start") ~note;
  Report.add report "par.domains" (float_of_int (domains ()));
  (* The traced clustering is draw 0; the untraced one before it is the
     base of trace.overhead_ratio, and all clusterings of it must agree. *)
  let d = List.hd ds in
  let db = Hashtbl.find dbs d.index in
  let journal = Filename.concat opts.workdir (name ^ "-journal.jsonl") in
  let firsts = Hashtbl.create 1 in
  let run_once ?metrics ?spans ?pool what =
    match repetition ?metrics ?spans ?pool opts t ~journal ~d db with
    | None -> None
    | Some (r, rep) ->
        check_repeat t firsts what rep;
        Some (r, rep)
  in
  let run_s = function Some (_, (rep : rep)) -> rep.run_s | None -> nan in
  let untraced_s = run_s (run_once "the untraced run") in
  let symbols = Seq_database.total_symbols db in
  let records0 = Obs.Journal.events_written () and dropped0 = Obs.Journal.dropped () in
  let traced = run_once ~metrics:true ~spans:sp "the traced run" in
  let traced_s = run_s traced in
  (match traced with
  | None -> ()
  | Some (r, rep) ->
      cluseq_entries report opts r ~run_s:rep.run_s;
      let gc = rep.gc in
      Report.add report "gc.minor_words_per_symbol" (gc.minor_words /. float_of_int symbols)
        ~note:(Printf.sprintf "%.0f minor words / %d input symbols" gc.minor_words symbols);
      Report.add report "gc.minor_words" gc.minor_words;
      Report.add report "gc.symbols" (float_of_int symbols);
      Report.add report "gc.major_collections" (float_of_int gc.major_collections);
      Report.add report "par.domain_busy_ratio"
        (Obs.Metrics.gauge_value (Obs.Metrics.gauge "par.domain_busy_ratio"))
        ~note:"mean busy/wall over domains, last parallel job";
      let alphabet_size = Alphabet.size (Seq_database.alphabet db) in
      let pst_config = pst_config_of (Workloads.config opts.kind) ~alphabet_size in
      if Array.exists (fun (_, p) -> Pst.config p <> pst_config) r.models then
        problem t "final models do not use the PST config the probes assume";
      probes report t sp ~pst_config ~models:r.models ~members:r.clusters db);
  if observed opts.kind then begin
    Report.add report "obs.journal_records"
      (float_of_int (Obs.Journal.events_written () - records0));
    Report.add report "obs.journal_bytes" (float_of_int (Unix.stat journal).st_size)
  end
  else zero report [ "obs.journal_records"; "obs.journal_bytes" ];
  Report.add report "obs.journal_dropped" (float_of_int (Obs.Journal.dropped () - dropped0));
  Report.add report "trace.overhead_ratio" (traced_s /. untraced_s)
    ~note:(Printf.sprintf "traced %.6f s / untraced %.6f s" traced_s untraced_s);
  Report.add report "trace.traced_run_s" traced_s;
  Report.add report "trace.untraced_run_s" untraced_s;
  if opts.kind = Synth_batch then begin
    (* par.speedup: the same untraced clustering at one domain, which
       must also give the same memberships. *)
    let one_s = run_s (run_once ~pool:1 "the one-domain run") in
    Report.add report "par.speedup" (one_s /. untraced_s)
      ~note:
        (Printf.sprintf "1 domain %.6f s / %d domains %.6f s" one_s (domains ()) untraced_s);
    Report.add report "par.run_1_domain_s" one_s;
    Report.add report "par.run_n_domains_s" untraced_s;
    online_entries report t sp opts
  end
  else
    zero report ([ "par.speedup"; "par.run_1_domain_s"; "par.run_n_domains_s" ] @ online_names);
  let spans_path =
    Filename.concat opts.workdir (Printf.sprintf "%s-seed%d-spans.jsonl" name opts.seed)
  in
  Spans.write sp spans_path;
  Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans sp)) spans_path;
  List.iter
    (fun ((n, tag), (count, total, self)) ->
      Printf.printf "  span %-18s %-9s n=%-5d total=%.6f s self=%.6f s\n" n tag count
        (Int64.to_float total /. 1e9) (Int64.to_float self /. 1e9))
    (Spans.summary sp);
  error_rate_entry report t;
  (report, t)

(* Runs the workload and checks that every metric of its pass was
   measured. *)
let execute opts ~rev =
  let report, t = if opts.trace then traced opts ~rev else untraced opts ~rev in
  stop_pool ();
  let keep =
    List.map
      (fun (m : Decl.metric) -> m.name)
      (if opts.trace then Decl.per_layer else Decl.end_to_end)
  in
  (* p99 needs 1000+ feeds, which only a tiny test input lacks. *)
  List.iter
    (fun n ->
      if n <> "feed_p99_ms" && not (List.mem n (Report.names report)) then
        problem t ("metric not measured: " ^ n))
    keep;
  (report, t, keep)

let run opts ~rev =
  let report, t, keep = execute opts ~rev in
  Report.print_table report;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev t.problems);
  let correct = t.failed = 0 && t.problems = [] in
  print_endline
    (Report.result_line report ~keep ~correct ~attempted:(max 1 t.attempted) ~failed:t.failed);
  correct
