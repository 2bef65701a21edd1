(** Per-metric regression verdicts between two benchmark telemetry
    reports — the perf regression gate.

    Comparison rules:
    - {b Time} (experiment wall, in-[Cluseq.run] seconds, per-phase
      seconds, micro ns/run): a regression when the candidate exceeds
      the base by more than [threshold_pct]. Base values below a noise
      floor (50 ms for macro timings, 10 ns for micro) are skipped —
      relative change of a tiny measurement is meaningless.
    - {b Throughput} (sequences/s, symbols/s): regression on a drop
      beyond [threshold_pct]; skipped under the same macro noise floor.
    - {b Allocation/heap} (minor+major words, peak heap words): a
      regression when growth exceeds [threshold_pct]; bases below 1M
      words are skipped.
    - {b Model size} (PST nodes built): deterministic given the seed,
      so compared with the plain [threshold_pct].
    - {b Scan census} (pairs scored, dirty rescores, wasted-pair
      ratio, pairs reused; schema v2): pure counts, bit-identical for a fixed seed
      at any domain count, so held to a tight 1% threshold — drift
      beyond rounding is a real algorithmic change. Skipped when the
      base report carries no census (all-zero block).
    - {b Drift gauges} ([drift.churn_rate] lower-better;
      [drift.cluster_age], [drift.intercluster_kl],
      [drift.member_score] higher-better): per-iteration
      clustering-quality means, deterministic for a fixed seed but
      built from float sums, so held to a 5% threshold. Skipped when
      the base report predates the gauges (all-zero drift block).
    - {b Quality} (the experiment headline, e.g. accuracy): regression
      on a {e relative} drop beyond [quality_threshold_pct]. Quality is
      seeded-deterministic, so any drop is a real behavior change; the
      default tolerance (2%) only absorbs float formatting.
    - Experiments or micro benches present on one side only yield
      [`Added]/[`Removed] informational verdicts, never failures — a
      subset smoke run can be gated against a full baseline. *)

type status =
  [ `Ok  (** Within threshold. *)
  | `Regression
  | `Improvement  (** Beyond threshold in the good direction — informational. *)
  | `Skipped  (** Base below the metric's noise floor. *)
  | `Added  (** Only in the candidate. *)
  | `Removed  (** Only in the base. *) ]

type verdict = {
  experiment : string;  (** Experiment id, or ["micro"]. *)
  metric : string;
  base : float;
  candidate : float;
  change_pct : float;  (** Signed relative change; 0 when base is 0. *)
  status : status;
}

val compare_reports :
  ?threshold_pct:float ->
  ?quality_threshold_pct:float ->
  base:Bench_report.t ->
  candidate:Bench_report.t ->
  unit ->
  (verdict list, string) result
(** Defaults: [threshold_pct = 25.], [quality_threshold_pct = 2.].
    [Error] when the two runs are incomparable ([--scale], word size, or
    [--domains] differ; a recorded domain count of 0 — files predating
    the parallel engine — matches anything). *)

val has_regression : verdict list -> bool

val render : verdict list -> string
(** Human-readable table of every non-[`Ok] verdict plus a summary
    line; regressions are listed first. *)
