(** Direct distribution-difference measures between cluster models.

    Paper Sec. 2 discusses measuring the difference between two
    conditional probability distributions with the {e variational
    distance} {m V(P_1,P_2) = \sum_σ |P_1(σ) - P_2(σ)|} or the
    (symmetrized) {e Kullback–Leibler divergence}
    {m J(P_1,P_2) = \sum_σ (P_1(σ)-P_2(σ)) \log(P_1(σ)/P_2(σ))}, and
    rejects them because the sum ranges over {m O(|Σ|^L)} segments.

    This module implements both measures over the conditional next-symbol
    distributions of two PSTs, aggregated over the {e realized} contexts
    (the union of significant nodes of either tree, weighted by their
    empirical frequency) — the practical variant that makes the comparison
    computable, and the context-tree distance of Leonardi et al. computed
    over the sparse trees directly. The drift telemetry, shard
    consolidation's prefilter and {!Agglomerative} all use it.

    {b How it is computed.} Each tree is first reduced to a {!profile}:
    its significant subtree, with every node's smoothed probability and
    log-probability vectors held off-heap. One ordered walk then visits
    both profiles together, merging each node's children by symbol
    (children are kept sorted, so no labels are built and nothing is
    hashed). Each side carries its deepest significant node on the
    current path. Because counts fall monotonically down a path and
    pruning detaches whole subtrees, that node is exactly the one a
    similarity query for the context would predict from: the exact node
    when it is significant, else the longest significant suffix. The
    values equal the straightforward label-by-label computation
    ([Ref_divergence] in [lib/check]) up to floating-point summation
    order. *)

type profile
(** A tree's significant subtree and its smoothed next-symbol vectors,
    frozen at build time: a later mutation of the tree does not show in
    it. Read-only, so safe to share across domains. *)

val profile : Pst.t -> profile
(** [profile t] builds the profile of [t]'s current state, in
    O(significant nodes · |Σ|). Build it once per tree state and reuse
    it for every pair the tree appears in. *)

val profile_variational : profile -> profile -> float
(** {!variational} over two prebuilt profiles. *)

val profile_kl_symmetric : profile -> profile -> float
(** {!kl_symmetric} over two prebuilt profiles. *)

val variational : Pst.t -> Pst.t -> float
(** [variational a b] is the frequency-weighted average, over the
    significant contexts of either tree, of
    {m \sum_s |P_a(s|ctx) - P_b(s|ctx)|} ∈ [0, 2]. A context weighs the
    sum of its counts in the trees where it is significant. A context
    not significant in one tree falls back to that tree's
    prediction-node estimate (longest significant suffix), exactly like
    a similarity query. No context at all (two empty trees) gives 0.
    Builds both profiles; trees must share the alphabet size, else
    [Invalid_argument "Divergence: alphabet size mismatch"]. *)

val kl_symmetric : Pst.t -> Pst.t -> float
(** [kl_symmetric a b] is the frequency-weighted average symmetrized KL
    divergence {m J} over the same context set, using each tree's smoothed
    probabilities (so the value is finite whenever both configs smooth,
    i.e. [p_min > 0]; symbols with probability 0 on either side are
    skipped); ≥ 0, 0 iff the matched conditionals agree. *)
