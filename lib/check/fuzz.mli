(** Deterministic fuzz harness cross-checking every correctness oracle.

    Each case is generated from a single seed ([Rng.create seed], case
    [i] of a run uses [seed + i]) and drives a random workload through
    the full pipeline:

    - builds a {!Pst} and a {!Ref_pst} from the same insertions and
      demands exact structural and probability agreement, then prunes
      the tree and re-checks {!Check.pst_invariants};
    - compares the Kadane similarity scan against the O(l²) brute-force
      reference on every probe;
    - runs {!Cluseq.run} at 1 and at 4 domains with the
      {!Check.auditor} installed (serial reclustering replay + live
      invariants every iteration) and demands structurally identical
      results — the determinism contract of the domain pool;
    - classifies probes at both domain counts and compares verdicts;
    - round-trips every final model through the textual serialization.

    On failure the workload is shrunk greedily (drop whole sequences,
    then halve survivors) while it still fails, and the report carries a
    replay seed: [cluseq check --fuzz 1 --seed <replay>] regenerates
    and re-runs the original failing case. *)

type case = {
  case_seed : int;  (** The generation seed; replays the case exactly. *)
  alphabet_size : int;
  seqs : Sequence.t array;  (** The workload to cluster. *)
  probes : Sequence.t array;  (** Held-out sequences to classify. *)
  cluseq_cfg : Cluseq.config;
}
(** A self-contained fuzz case. *)

type failure = {
  f_index : int;  (** Which case of the run failed (0-based). *)
  f_replay_seed : int;  (** Pass as [--seed] with [--fuzz 1] to replay. *)
  f_messages : string list;  (** The oracle mismatches, deduplicated. *)
  f_case : case;  (** The shrunk (minimized) failing case. *)
}

val gen_case : seed:int -> case
(** Deterministically generate a case from its seed: alphabet size 2–5,
    4–16 sequences of length 0–24 (empty sequences included, to exercise
    the [empty_result] paths), small PST/clustering parameters, and a
    node budget high enough that the differential oracle's no-pruning
    requirement holds. *)

val run_case : case -> string list
(** Run every oracle over one case; the (possibly empty) list of
    mismatch messages. Temporarily installs the {!Check} auditor and
    switches the default domain count; both are restored on exit. *)

val shrink : case -> still_fails:(case -> bool) -> case
(** Greedy, budget-capped minimization: repeatedly drop a sequence or
    halve one while the predicate still fails. *)

val run :
  ?progress:(int -> unit) ->
  n:int ->
  seed:int ->
  unit ->
  (int, failure) result
(** [run ~n ~seed ()] executes cases [seed, seed+1, …, seed+n-1],
    stopping at the first failure (shrunk before reporting).
    [progress] is called with each completed case index. [Ok n] when
    every case passes. *)

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable report: messages, the minimized workload (decoded),
    and the replay command line. *)
