(** A sequence cluster: a probabilistic suffix tree modeling the cluster's
    CPD plus a member bitset over sequence ids (paper Defn. 2.1). *)

type t
(** A mutable cluster. *)

val create : id:int -> ?born:int -> capacity:int -> Pst.config -> Sequence.t -> t
(** [create ~id ~capacity cfg seed] is a fresh cluster initialized from one
    seed sequence (paper Sec. 4.1): its PST is built from the seed and the
    seed is not yet recorded as a member (membership is decided by the
    reclustering pass). [capacity] is the database size, fixing the member
    bitset width. [born] (default 0) records the iteration that seeded the
    cluster, for the drift telemetry's age histogram. *)

val id : t -> int
(** Stable identifier assigned at creation. *)

val born : t -> int
(** Iteration at which the cluster was seeded (0 for initial clusters). *)

val pst : t -> Pst.t
(** The cluster's probabilistic suffix tree. *)

val members : t -> Bitset.t
(** The member set (shared, mutable through {!add_member} / {!clear}). *)

val size : t -> int
(** Number of members. *)

val mem : t -> int -> bool
(** Membership test by sequence id. *)

val add_member : t -> int -> unit
(** Record a sequence id as a member. *)

val clear_members : t -> unit
(** Empty the member set (start of a reclustering pass); the PST is kept. *)

val compile : t -> unit
(** Build (and cache) the {!Psa.t} scoring automaton for the cluster's
    current PST, if not already cached and {!Psa.enabled}. Called on the
    main domain at the start of every read-only scoring sweep; any later
    {!absorb} drops the cache, so the automaton can never go stale.
    Idempotent and cheap when the cache is already present. An actual
    (re)build journals a [cluster.froze] event when {!Obs.Journal} is
    enabled. *)

val score_cache : t -> Similarity.result array option
(** The previous reclustering pass's score column against this cluster
    (index [sid] → that sequence's {!Similarity.result}), if the PST is
    unchanged since it was computed. Because scoring is deterministic,
    a cached entry is bit-identical to a fresh evaluation against the
    current model — the reclustering scan reuses it instead of
    rescoring. Same lifecycle as {!compile}: any {!absorb} that grows
    the tree drops it. *)

val set_score_cache : t -> Similarity.result array -> unit
(** Install the score column computed by a just-finished pass. Callers
    must only do this when the PST was not mutated during the pass. *)

val similarity : t -> log_background:float array -> Sequence.t -> Similarity.result
(** {!Similarity.score} against this cluster's PST — via the compiled
    automaton when one is cached ({!compile}), via the tree walk
    otherwise. The two paths are bit-for-bit equal, so the choice is
    invisible to callers. *)

val similarity_batch :
  t ->
  log_background:float array ->
  batch:Psa.batch ->
  Sequence.t array ->
  Similarity.result array
(** Score a whole block against this cluster in one pass — the batched
    kernel ({!Similarity.score_batch}) over the cached automaton when
    one is present, a per-sequence tree walk otherwise (the [--no-psa]
    fallback). Bit-for-bit equal to mapping {!similarity} over the
    block either way. [batch] is the caller's reusable scratch (one per
    worker domain). *)

val absorb : t -> seq_id:int -> Sequence.t -> Similarity.result -> unit
(** [absorb t ~seq_id s r] adds [seq_id] as a member and inserts the
    maximizing segment [r.seg_lo .. r.seg_hi] of [s] into the PST
    (paper Sec. 4.2/4.4: only the best segment updates the tree). *)
