(* Regression verdicts between two BENCH_*.json reports. See mli. *)

type status = [ `Ok | `Regression | `Improvement | `Skipped | `Added | `Removed ]

type verdict = {
  experiment : string;
  metric : string;
  base : float;
  candidate : float;
  change_pct : float;
  status : status;
}

type direction = Lower_better | Higher_better

(* Noise floors: relative change below these base magnitudes is not
   evidence of anything. *)
let min_macro_seconds = 0.05
let min_micro_ns = 10.0
let min_words = 1e6

(* Census counts are deterministic for a fixed seed (pure arithmetic,
   no clock reads), so unlike timings they get a far tighter
   threshold: any drift beyond rounding is a real algorithmic
   change. *)
let census_threshold_pct = 1.0

(* Drift gauges are deterministic too (serial-state means, no clock
   reads), but they are ratios of float sums, so allow a little more
   slack than raw counts before calling a quality shift real. *)
let drift_threshold_pct = 5.0

let change_pct ~base ~candidate =
  if base = 0.0 then 0.0 else (candidate -. base) /. Float.abs base *. 100.0

let judge ~threshold ~direction ~min_base ~experiment ~metric ~base ~candidate =
  let pct = change_pct ~base ~candidate in
  let status =
    if Float.abs base < min_base then `Skipped
    else
      let exceeded = Float.abs pct > threshold in
      match direction with
      | Lower_better ->
          if candidate > base && exceeded then `Regression
          else if candidate < base && exceeded then `Improvement
          else `Ok
      | Higher_better ->
          if candidate < base && exceeded then `Regression
          else if candidate > base && exceeded then `Improvement
          else `Ok
  in
  { experiment; metric; base; candidate; change_pct = pct; status }

let compare_experiment ~threshold ~quality_threshold (b : Bench_report.experiment)
    (c : Bench_report.experiment) =
  let time metric base candidate =
    judge ~threshold ~direction:Lower_better ~min_base:min_macro_seconds
      ~experiment:b.id ~metric ~base ~candidate
  in
  let verdicts =
    [
      time "wall_s" b.wall_s c.wall_s;
      time "cluseq.seconds" b.cluseq_seconds c.cluseq_seconds;
    ]
    @ List.filter_map
        (fun (p, bs) ->
          Option.map (fun cs -> time ("phase." ^ p) bs cs) (List.assoc_opt p c.phases))
        b.phases
    @ [
        judge ~threshold ~direction:Higher_better ~min_base:1.0 ~experiment:b.id
          ~metric:"throughput.sequences_per_s"
          ~base:(Bench_report.sequences_per_s b)
          ~candidate:(Bench_report.sequences_per_s c);
        judge ~threshold ~direction:Lower_better ~min_base:min_words ~experiment:b.id
          ~metric:"gc.minor_words" ~base:b.gc.minor_words ~candidate:c.gc.minor_words;
        (* Allocation per scored symbol: the ratio the off-heap batched
           scorer ratchets. min_base 1.0 word/symbol skips runs with no
           recorded symbols (ratio 0) and truly allocation-free ones,
           where the ratio is all noise. *)
        judge ~threshold ~direction:Lower_better ~min_base:1.0 ~experiment:b.id
          ~metric:"gc.minor_words_per_symbol"
          ~base:(Bench_report.minor_words_per_symbol b)
          ~candidate:(Bench_report.minor_words_per_symbol c);
        judge ~threshold ~direction:Lower_better ~min_base:min_words ~experiment:b.id
          ~metric:"gc.major_words" ~base:b.gc.major_words ~candidate:c.gc.major_words;
        judge ~threshold ~direction:Lower_better ~min_base:min_words ~experiment:b.id
          ~metric:"gc.peak_heap_words"
          ~base:(float_of_int b.peak_heap_words)
          ~candidate:(float_of_int c.peak_heap_words);
        judge ~threshold ~direction:Lower_better ~min_base:100.0 ~experiment:b.id
          ~metric:"pst.nodes_built"
          ~base:(float_of_int b.pst_nodes_built)
          ~candidate:(float_of_int c.pst_nodes_built);
      ]
  in
  (* Throughput is only meaningful when enough clustering time was
     measured; tie it to the same macro noise floor. *)
  let verdicts =
    List.map
      (fun v ->
        if v.metric = "throughput.sequences_per_s" && b.cluseq_seconds < min_macro_seconds
        then { v with status = `Skipped }
        else v)
      verdicts
  in
  (* Scan census: skipped when the base predates schema v2 (all-zero
     census) so old baselines keep comparing. *)
  let census =
    if b.census.pairs_scored = 0 then []
    else
      let count metric base candidate =
        judge ~threshold:census_threshold_pct ~direction:Lower_better ~min_base:1.0
          ~experiment:b.id ~metric ~base:(float_of_int base)
          ~candidate:(float_of_int candidate)
      in
      [
        count "census.pairs_scored" b.census.pairs_scored c.census.pairs_scored;
        count "census.dirty_rescores" b.census.dirty_rescores c.census.dirty_rescores;
        judge ~threshold:census_threshold_pct ~direction:Lower_better ~min_base:0.01
          ~experiment:b.id ~metric:"census.wasted_pair_ratio"
          ~base:(Bench_report.wasted_pair_ratio b.census)
          ~candidate:(Bench_report.wasted_pair_ratio c.census);
        (* Score-column cache reuse (also deterministic): falling reuse
           means the cache regressed; min_base skips it against
           baselines written before the cache existed. *)
        judge ~threshold:census_threshold_pct ~direction:Higher_better ~min_base:1.0
          ~experiment:b.id ~metric:"census.pairs_reused"
          ~base:(float_of_int b.census.pairs_reused)
          ~candidate:(float_of_int c.census.pairs_reused);
      ]
  in
  (* Drift gauges: skipped when the base predates them (all-zero
     block) so old baselines keep comparing. Churn falling is calmer
     clustering; ages, inter-cluster separation, and member scores
     falling mean quality drifted down. *)
  let drift =
    if Bench_report.drift_is_empty b.drift then []
    else
      let gauge metric direction base candidate =
        judge ~threshold:drift_threshold_pct ~direction ~min_base:1e-6
          ~experiment:b.id ~metric ~base ~candidate
      in
      [
        gauge "drift.churn_rate" Lower_better b.drift.churn_rate c.drift.churn_rate;
        gauge "drift.cluster_age" Higher_better b.drift.cluster_age c.drift.cluster_age;
        gauge "drift.intercluster_kl" Higher_better b.drift.intercluster_kl
          c.drift.intercluster_kl;
        gauge "drift.member_score" Higher_better b.drift.member_score c.drift.member_score;
      ]
  in
  let quality =
    match (b.quality, c.quality) with
    | Some (bm, bv), Some (cm, cv) when bm = cm ->
        [
          judge ~threshold:quality_threshold ~direction:Higher_better ~min_base:0.0
            ~experiment:b.id ~metric:("quality." ^ bm) ~base:bv ~candidate:cv;
        ]
    | _ -> []
  in
  verdicts @ census @ drift @ quality

let compare_reports ?(threshold_pct = 25.0) ?(quality_threshold_pct = 2.0)
    ~(base : Bench_report.t) ~(candidate : Bench_report.t) () =
  if Float.abs (base.env.scale -. candidate.env.scale) > 1e-9 then
    Error
      (Printf.sprintf "incomparable runs: base --scale %g vs candidate --scale %g"
         base.env.scale candidate.env.scale)
  else if base.env.word_size <> candidate.env.word_size then
    Error
      (Printf.sprintf "incomparable runs: base word size %d vs candidate %d" base.env.word_size
         candidate.env.word_size)
  else if
    (* 0 = pre-parallel-engine file with no domains field: wildcard. *)
    base.env.domains > 0 && candidate.env.domains > 0
    && base.env.domains <> candidate.env.domains
  then
    Error
      (Printf.sprintf "incomparable runs: base --domains %d vs candidate --domains %d"
         base.env.domains candidate.env.domains)
  else if
    (* 0 = pre-shard-and-merge file with no shards field: wildcard. *)
    base.env.shards > 0 && candidate.env.shards > 0
    && base.env.shards <> candidate.env.shards
  then
    Error
      (Printf.sprintf "incomparable runs: base --shards %d vs candidate --shards %d"
         base.env.shards candidate.env.shards)
  else begin
    let acc = ref [] in
    let push v = acc := v :: !acc in
    let marker status experiment metric =
      { experiment; metric; base = 0.0; candidate = 0.0; change_pct = 0.0; status }
    in
    List.iter
      (fun (b : Bench_report.experiment) ->
        match List.find_opt (fun (c : Bench_report.experiment) -> c.id = b.id) candidate.experiments with
        | Some c ->
            List.iter push
              (compare_experiment ~threshold:threshold_pct
                 ~quality_threshold:quality_threshold_pct b c)
        | None -> push (marker `Removed b.id "experiment"))
      base.experiments;
    List.iter
      (fun (c : Bench_report.experiment) ->
        if not (List.exists (fun (b : Bench_report.experiment) -> b.id = c.id) base.experiments)
        then push (marker `Added c.id "experiment"))
      candidate.experiments;
    List.iter
      (fun (name, bns) ->
        match List.assoc_opt name candidate.micro with
        | Some cns ->
            push
              (judge ~threshold:threshold_pct ~direction:Lower_better ~min_base:min_micro_ns
                 ~experiment:"micro" ~metric:name ~base:bns ~candidate:cns)
        | None -> push (marker `Removed "micro" name))
      base.micro;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name base.micro) then push (marker `Added "micro" name))
      candidate.micro;
    Ok (List.rev !acc)
  end

let has_regression verdicts = List.exists (fun v -> v.status = `Regression) verdicts

let status_label : status -> string = function
  | `Ok -> "ok"
  | `Regression -> "REGRESSION"
  | `Improvement -> "improvement"
  | `Skipped -> "skipped"
  | `Added -> "added"
  | `Removed -> "removed"

let render verdicts =
  let b = Buffer.create 1024 in
  let count st = List.length (List.filter (fun v -> v.status = st) verdicts) in
  let interesting =
    List.filter (fun v -> match v.status with `Regression | `Improvement -> true | _ -> false) verdicts
  in
  let interesting =
    (* regressions first, then by experiment/metric for stable output *)
    List.stable_sort
      (fun a b ->
        match (a.status, b.status) with
        | `Regression, `Regression | `Improvement, `Improvement ->
            compare (a.experiment, a.metric) (b.experiment, b.metric)
        | `Regression, _ -> -1
        | _, `Regression -> 1
        | _ -> 0)
      interesting
  in
  if interesting <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-12s %-28s %14s %14s %9s  %s\n" "experiment" "metric" "base" "new"
         "change" "status");
    List.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "%-12s %-28s %14.4g %14.4g %+8.1f%%  %s\n" v.experiment v.metric
             v.base v.candidate v.change_pct (status_label v.status)))
      interesting
  end;
  List.iter
    (fun v ->
      match v.status with
      | `Added -> Buffer.add_string b (Printf.sprintf "note: %s %s only in candidate\n" v.experiment v.metric)
      | `Removed -> Buffer.add_string b (Printf.sprintf "note: %s %s only in base\n" v.experiment v.metric)
      | _ -> ())
    verdicts;
  Buffer.add_string b
    (Printf.sprintf "%d metrics compared: %d ok, %d regressions, %d improvements, %d skipped\n"
       (List.length verdicts - count `Added - count `Removed)
       (count `Ok) (count `Regression) (count `Improvement) (count `Skipped));
  Buffer.contents b
