(** Probabilistic suffix trees (paper Sec. 3).

    A PST organizes the conditional probability distribution (CPD) of the
    next symbol given a preceding segment, for one sequence cluster. The
    tree is built over {e reversed} contexts: the node reached from the root
    along symbols {m s_{i-1}, s_{i-2}, \ldots} carries the label
    {m s_j \ldots s_{i-1}} (read in original order), its occurrence count
    {m C}, and a next-symbol count vector from which the probability vector
    {m P(s \mid label)} is derived as {m C(label\,s)/\sum_x C(label\,x)}.

    Prediction of {m P(s_i \mid s_1 \ldots s_{i-1})} walks from the root
    along {m s_{i-1}, s_{i-2}, \ldots}, descending only into
    {e significant} nodes (count {m \ge c}); the deepest node reached is the
    {e prediction node} — the longest significant suffix of the context.

    Trees are memory-bounded: when the node count exceeds the budget the
    tree prunes itself using a {!Pruning.strategy} (paper Sec. 5.1).
    Probability reads are smoothed with the {m p_{min}} adjustment of paper
    Sec. 5.2 so no symbol ever has probability zero. *)

type config = {
  alphabet_size : int;  (** |Σ|; symbol codes must lie in [\[0, n)]. *)
  max_depth : int;  (** Maximum context length L (short-memory bound). *)
  significance : int;  (** The significance threshold [c] (paper: ≥ 30). *)
  max_nodes : int;  (** Node budget; the tree prunes itself beyond this. *)
  p_min : float;
      (** Smoothing floor: adjusted probability is
          [(1 - n·p_min)·p + p_min]. [0.] disables smoothing. *)
  pruning : Pruning.strategy;  (** Policy applied when over budget. *)
}

val default_config : alphabet_size:int -> config
(** Sensible defaults: [max_depth = 10], [significance = 30],
    [max_nodes = 20_000], [p_min] clamped to [min 1e-3 (1/(4·n))],
    [pruning = Smallest_count_first]. *)

type t
(** A mutable probabilistic suffix tree. *)

type node [@@immediate]
(** A node of the tree: an int handle into the tree's flat node store,
    obtained from walks or lookups. A handle is valid until the next
    mutation of its tree — pruning frees slots and insertion reuses
    them — and is meaningful only together with the tree it came
    from. *)

val create : config -> t
(** An empty tree (root only, count 0). Raises [Invalid_argument] on
    non-positive [alphabet_size], [max_depth], [significance], or a
    [max_nodes < 1], or [p_min] outside [\[0, 1/n\]). *)

val config : t -> config
(** The construction-time configuration. *)

val n_nodes : t -> int
(** Number of nodes, root included. *)

val total_count : t -> int
(** The root count: total number of symbol positions inserted — "the overall
    size of the sequence cluster" (paper Sec. 3). *)

val insert_sequence : t -> Sequence.t -> unit
(** [insert_sequence t s] adds every context of [s] (up to [max_depth]) with
    its next-symbol observation, updating counts and probability vectors
    incrementally. May trigger pruning. *)

val insert_segment : t -> Sequence.t -> lo:int -> hi:int -> unit
(** [insert_segment t s ~lo ~hi] inserts the segment [s.(lo) .. s.(hi)]
    (inclusive) as if it were a standalone sequence — the cluster-update
    primitive of paper Sec. 4.4 (only the best-matching segment of a joining
    sequence is inserted). Raises [Invalid_argument] on bad bounds. *)

val root : t -> node
(** The root node (empty label). *)

val node_count : t -> node -> int
(** Occurrence count {m C} of the node's label. Raises
    [Invalid_argument] on a handle whose slot has been freed. *)

val node_depth : t -> node -> int
(** Label length. Raises [Invalid_argument] like {!node_count}. *)

val is_significant : t -> node -> bool
(** [count >= significance]; the root is always significant. *)

val prediction_node : t -> Sequence.t -> lo:int -> pos:int -> node
(** [prediction_node t s ~lo ~pos] is the prediction node for the context
    [s.(lo) .. s.(pos-1)]: walk backwards from [s.(pos-1)], descending only
    into significant children, stopping after [max_depth] steps or when the
    context is exhausted. [pos = lo] yields the root. *)

val next_log_prob : t -> node -> int -> float
(** [next_log_prob t node sym] is {m \log \hat P(sym \mid label(node))}
    with the [p_min] adjustment applied. A node with no next observations
    yields the uniform [log (1/n)]. *)

val write_next_log_probs :
  t -> node -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t -> pos:int -> unit
(** [write_next_log_probs t node dst ~pos] stores {!next_log_prob} of
    every symbol [0 .. n-1] into [dst.{pos} .. dst.{pos + n - 1}] —
    the same floats, bit for bit, without boxing one per symbol (the
    {!Psa} emission table is filled this way). Raises
    [Invalid_argument] if the range does not fit [dst]. *)

val log_prob : t -> Sequence.t -> lo:int -> pos:int -> float
(** [log_prob t s ~lo ~pos] is
    {m \log \hat P(s_{pos} \mid s_{lo} \ldots s_{pos-1})} via
    {!prediction_node} + {!next_log_prob} — the unified two-step estimation
    procedure of paper Sec. 3. *)

val find_node : t -> Sequence.t -> node option
(** [find_node t label] locates the node with exactly this label (walking
    without the significance restriction); intended for tests and
    inspection. *)

val next_count : t -> node -> int -> int
(** [next_count t node sym] is the raw count {m C(label\,sym)}. *)

val next_total : t -> node -> int
(** Sum of next-symbol counts at the node. *)

val node_children : t -> node -> (int * node) list
(** [(edge symbol, child)] pairs in increasing symbol order — the walk
    primitive of the {!module:Check}-style invariant checkers (a child's
    label is [symbol · label(parent)]). *)

val copy : t -> t
(** [copy t] is a deep, independent copy with identical structure,
    counts, and internal storage (node slots and free lists included):
    every subsequent operation (scoring, pruning) behaves
    bit-identically on the copy, and [t]'s node handles name the same
    nodes in it. Used by the correctness oracles to snapshot a model
    before replaying mutations. *)

val merge : t -> t -> t
(** [merge a b] is a new tree (inputs untouched) whose counts are the
    node-by-node sum of [a] and [b] over the union of their node sets —
    the counts a single tree would have accumulated had it seen both
    databases, up to pruning. Because children and counters are kept
    in symbol order, the result is independent of argument order: merge
    is commutative and associative under {!equal_structure} when no
    pruning fires. The
    merged tree re-prunes itself if the union exceeds [max_nodes].
    Raises [Invalid_argument] when the configs differ. *)

val iter_children : t -> node -> (int -> node -> unit) -> unit
(** [iter_children t node f] calls [f sym child] for every child, in the
    order of {!node_children}, without building the list. [f] must not
    mutate [t]. *)

val next_distribution : t -> node -> float array
(** The full smoothed probability vector at a node (length |Σ|). *)

val prune_to : t -> int -> unit
(** [prune_to t target] prunes nodes (never the root) until
    [n_nodes t <= target], using the configured strategy. *)

val detach : t -> node -> unit
(** [detach t node] removes [node]'s whole subtree from the tree,
    subtracts its size from {!n_nodes} and frees its slots for reuse; a
    no-op for the root or a node already detached (freed slots are only
    refilled by a later insertion or merge). The primitive every pruning
    strategy is built from — exposed for the pruning oracle in
    [lib/check]. *)

val divergence_from_parent : t -> node -> float
(** L1 distance between a node's raw next-symbol distribution and its
    parent's ([infinity] at the root): the rank [Expected_vector_first]
    pruning peels leaves by. *)

type stats = {
  nodes : int;
  significant_nodes : int;
  max_depth_used : int;
  approx_bytes : int;
      (** Memory footprint of the tree in bytes: the allocated length of
          its node array and count arena (off-heap, spare capacity
          included), the free-list heads and the tree record. *)
}

val stats : t -> stats
(** Structural statistics, used by the Figure 4 bench. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Depth-first iteration over all nodes (root first). *)

val node_label : t -> node -> int list
(** The node's label in original (unreversed) symbol order; for tests. *)

val to_channel : out_channel -> t -> unit
(** [to_channel oc t] writes a complete textual serialization of the tree
    (config, counts, next-symbol counters). The format is line-based,
    versioned, and stable across sessions. *)

val of_channel : in_channel -> t
(** [of_channel ic] reads a tree written by {!to_channel}. Raises
    [Failure] on malformed input or an unsupported version. *)

val to_string : t -> string
(** In-memory {!to_channel}: the same line-based format as a string. *)

val of_string : string -> t
(** In-memory {!of_channel}. Raises [Failure] on malformed input. Note
    that counts are restored {e verbatim} — a tampered serialization
    yields a structurally valid but semantically corrupt tree, which is
    exactly what [Check.pst_invariants] exists to catch. *)

val equal_structure : t -> t -> bool
(** [equal_structure a b] iff both trees have identical configs, node
    sets, counts, and next-symbol counters — serialization round-trip
    checks. *)

val pp :
  ?max_depth:int ->
  ?min_count:int ->
  symbol:(Format.formatter -> int -> unit) ->
  Format.formatter ->
  t ->
  unit
(** [pp ~symbol fmt t] renders the tree in the style of the paper's
    Figure 1: one line per node with its label, count, significance mark,
    and next-symbol probability vector (most probable first). [max_depth]
    (default 3) and [min_count] (default 1) bound the output. *)
