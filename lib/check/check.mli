(** Runtime invariant checkers and differential oracles for the CLUSEQ
    pipeline (see DESIGN.md §8).

    Each checker returns a list of human-readable violation messages —
    empty means clean — so callers can aggregate, print, or turn them
    into a {!Violation}. The {!install_auditor} entry point wires the
    live checkers into {!Cluseq.run}'s audit hooks; production runs pay
    a single ref read per iteration unless the auditor is installed
    (the [--check] CLI flag or [CLUSEQ_CHECK=1]). *)

exception Violation of string list
(** Raised by the installed auditor when a checker reports violations.
    Aborts the surrounding run; the messages name every failed
    invariant. *)

val pst_invariants : Pst.t -> string list
(** Structural soundness of a probabilistic suffix tree:
    - the traversal node count equals [Pst.n_nodes], which respects the
      [max_nodes] budget;
    - depths grow by one along edges and never exceed [max_depth]; edge
      symbols are in-alphabet and strictly increasing per node;
    - a child's count never exceeds its parent's, and the children's
      counts sum to at most the parent's (each inserted position bumps
      at most one child per node);
    - [next_total] equals the sum of the next-symbol counters and never
      exceeds the node count;
    - the smoothed distribution sums to 1 (±1e-9) with every entry in
      [[p_min, 1 - (n-1)·p_min]] when smoothing is on, and is exactly
      uniform at nodes with no observations. *)

val result_invariants : n:int -> Cluseq.result -> string list
(** Coherence of a finished run over [n] sequences: unique cluster ids;
    sorted in-range member lists; membership and [assignments] agree in
    both directions; [outliers] is exactly the empty-assignment
    sequences; [best] entries are finite; [models] / [pst_stats] ids
    match the clusters; every final model passes {!pst_invariants}. *)

val cluster_invariants : Cluster.t list -> assignments:int list array -> string list
(** Live variant used by the auditor after each consolidation: bitset
    membership must mirror the assignment lists in both directions — in
    particular no dismissed cluster id survives in any assignment — and
    every surviving cluster's PST passes {!pst_invariants}. *)

val reference_recluster :
  Cluseq.recluster_snapshot -> (int * Bitset.t) array * int list array
(** Serial reference replay of one reclustering pass from its frozen
    snapshot: visit sequences in the recorded order and score each
    against every cluster's {e current} (evolving) model copy — no
    parallel score matrix, no dirty tracking — joining, absorbing and
    recording assignments with the engine's exact rules. Returns the
    per-cluster memberships and per-sequence assignment lists the pass
    must produce. Because scoring is deterministic, the engine's
    optimized pass (parallel matrix + score-column cache + dirty-cluster
    rescoring) must match this replay bit-for-bit. *)

val recluster_matches :
  Cluseq.recluster_snapshot ->
  after:(int * Bitset.t) array ->
  assignments:int list array ->
  string list
(** Compare the engine's reclustering outcome against
    {!reference_recluster}; messages name each diverging cluster or
    sequence. *)

val psa_scoring_matches :
  Pst.t -> log_background:float array -> Sequence.t array -> string list
(** Differential oracle for the compiled scoring automaton: compiles the
    tree with {!Psa.compile} and demands {e exact} float equality of the
    per-position X_i profiles ({!Similarity.xs} vs {!Similarity.xs_psa}),
    identical maximizing segments and log-similarities
    ({!Similarity.score} vs {!Similarity.score_psa}), and per-position
    agreement of the automaton state's depth with
    {!Pst.prediction_node}'s. Run by the fuzz harness on every case,
    against both the unpruned and a pruned tree. *)

val batch_scoring_matches :
  Pst.t -> log_background:float array -> Sequence.t array list -> string list
(** Differential oracle for the batched kernel: compiles the tree and
    scores each block with {!Similarity.score_batch} against
    {!Similarity.score_psa} per sequence, demanding {e exact} float
    equality of every log-similarity plus identical segment bounds. All
    blocks share one scratch (created with capacity 1) so lane-reset and
    resize bugs across block boundaries are exercised too. Run by the
    fuzz harness (check #6) on both the unpruned and a pruned tree, with
    blocks that include the empty block, singletons, and empty
    sequences. *)

val auditor : unit -> Cluseq.auditor
(** An auditor running {!recluster_matches} after every reclustering
    pass and {!cluster_invariants} after every consolidation, raising
    {!Violation} on the first report. *)

val install_auditor : unit -> unit
(** [Cluseq.set_auditor (Some (auditor ()))]. *)

val uninstall_auditor : unit -> unit
(** Clear the hook; runs go back to paying one ref read per iteration. *)

val env_enabled : unit -> bool
(** Whether [CLUSEQ_CHECK] is set to anything but [0]/[false]/[no]/empty. *)

val install_from_env : unit -> unit
(** {!install_auditor} iff {!env_enabled}; the CLI calls this at startup
    so [CLUSEQ_CHECK=1 cluseq cluster …] audits any run. *)
