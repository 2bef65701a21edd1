(** q-gram profile clustering — the "q-gram" baseline of paper Table 2
    (the paper runs it with [q = 3]).

    Each sequence is reduced to the multiset of its length-[q] segments
    (sliding window); similarity is the cosine between (weighted) q-gram
    count vectors, and clustering is spherical k-means over the sparse
    profiles. As the paper argues, the representation discards the
    sequential relationships {e between} q-grams, which is precisely the
    accuracy gap Table 2 demonstrates.

    Profiles are keyed by {!gram_key}: exact packed ints for [q <= 3]
    with symbol codes below [2^20] (every workload in this repo), a
    negligible-collision 62-bit mix outside that envelope. *)

val gram_key : Sequence.t -> pos:int -> q:int -> int
(** [gram_key s ~pos ~q] is the int key of the window [s.(pos) ..
    s.(pos+q-1)], non-negative and a function of the window's contents
    only. For [q <= 3] and symbol codes below [2^20] it is the exact
    base-[2^20] packing of the window, so distinct q-grams always get
    distinct keys; outside that envelope it falls back to an iterated
    64-bit mix, where collisions are possible in principle but
    negligible. No bounds checking beyond the array's own. Raises
    [Invalid_argument] when [q <= 0]. *)

type profile
(** A sparse q-gram count vector with its L2 norm. *)

val profile : q:int -> Sequence.t -> profile
(** [profile ~q s] is the q-gram profile of [s]; the profile is empty when
    [|s| < q]. Raises [Invalid_argument] when [q <= 0]. *)

val cosine : profile -> profile -> float
(** Cosine similarity in [\[0, 1\]]; [0.] when either profile is empty. *)

val dimensions : profile -> int
(** Number of distinct q-grams in the profile. *)

val is_empty : profile -> bool
(** [true] iff the profile has no grams (sequence shorter than [q]). *)

val unassigned : int
(** The label ([-1]) given to sequences k-means cannot place: empty
    profiles, or (degenerately) when every cluster has retired. *)

type result = {
  labels : int array;
      (** Cluster index per sequence, or {!unassigned} for sequences
          shorter than [q]. *)
  iterations : int;  (** k-means rounds executed. *)
}

val cluster :
  Rng.t -> k:int -> q:int -> ?rounds:int -> Sequence.t array -> result
(** [cluster rng ~k ~q data] runs spherical k-means: centroids start from
    random distinct sequences' profiles; each round assigns every
    non-empty profile to the max-cosine live centroid and recomputes
    centroids as normalized member sums; stops when assignments stabilize
    or after [rounds] (default 20). Empty profiles stay {!unassigned}; a
    cluster that ends a round with no members (or was seeded from an
    empty profile) is retired deterministically and never claims
    sequences again. *)
