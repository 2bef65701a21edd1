(** Reference implementation of PST pruning (paper Sec. 5.1).

    The straightforward form of {!Pst.prune_to}: list every node below
    the root, pair each with a tuple key, sort the pairs with polymorphic
    [compare], and detach subtrees in that order until the tree is under
    budget. {!Pst} packs the same keys and positions into ints and
    sorts them with [Key_sort], the stdlib heapsort comparing key bits
    only; both sorts see comparisons of the same sign, so on any tree
    the two must detach the same subtrees — the property tests compare
    the pruned trees with {!Pst.equal_structure}. *)

val prune_to : Pst.t -> int -> unit
(** [prune_to t target] prunes [t] in place to at most [max 1 target]
    nodes with the tree's configured {!Pruning.strategy}, exactly as
    {!Pst.prune_to} does (minus its metrics and logging). *)
