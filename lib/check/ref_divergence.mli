(** Reference implementation of the {!Divergence} measures.

    The straightforward form: list both trees' significant contexts as
    label arrays, merge them in a [Hashtbl] keyed by label lists (a
    context significant in both trees weighs the sum of its counts),
    and look each label up in both trees afresh — the exact node when
    it is significant, else the prediction node ({!Pst.prediction_node},
    the longest significant suffix) — reading full probability vectors
    with {!Pst.next_distribution}. {!Divergence} computes the same sums
    in one ordered walk of both trees over cached profiles; the two
    agree up to floating-point summation order, which the property
    tests in [test_divergence] check. *)

val variational : Pst.t -> Pst.t -> float
(** The frequency-weighted average variational distance, as
    {!Divergence.variational} defines it. Raises [Invalid_argument] on
    differing alphabet sizes. *)

val kl_symmetric : Pst.t -> Pst.t -> float
(** The frequency-weighted average symmetrized KL divergence, as
    {!Divergence.kl_symmetric} defines it. *)
