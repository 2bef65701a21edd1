(** A PST paired with its compiled automaton, and the rule for when to
    compile.

    {!Psa.compile} makes every later score ~15× cheaper, but costs
    O(states · |Σ|) once, and any mutation of the tree throws the
    automaton away. A model that mutates often between scores is
    better served by the tree walk; one scored many times per mutation
    is better served by the automaton. {!score} decides by ski rental:
    it walks the tree, counting the walked symbols since the last
    mutation, until that work matches the price of a compile, then
    compiles and scores through the automaton until the next
    {!insert_segment}. That is never worse than twice the better of "always
    walk" and "always compile". The count is deterministic (no clock),
    so when compiles happen depends only on the scoring history, never
    on timing or the domain count.

    Both engines are bit-for-bit equal (DESIGN.md §9), so the choice is
    invisible in every result. *)

type t
(** Mutable: the cached automaton and the tree-walk budget. *)

val create : Pst.t -> t
(** A scorer over [pst], with no automaton yet. Until its first
    compile it has no price to go by, so the first {!score} compiles
    straight away (when {!Psa.enabled}). *)

val pst : t -> Pst.t
(** The model, for reading; mutate it only through {!insert_segment}. *)

val compiled : t -> Psa.t option
(** The cached automaton, if it is current. *)

val compile : t -> unit
(** Build the automaton now if none is cached and {!Psa.enabled}.
    {!Psa.compile} records a main-domain histogram, so call this on
    the domain that owns the model, never from a parallel fan-out. *)

val insert_segment : t -> Sequence.t -> lo:int -> hi:int -> unit
(** {!Pst.insert_segment} into the model, then drop the now-stale
    automaton and restart the budget. *)

val score : t -> log_background:float array -> Sequence.t -> Similarity.result
(** {!Similarity.score} against the model, through whichever engine
    the break-even rule picks; may compile (same domain caveat as
    {!compile}). The rule prices a compile at [n_states · |Σ| / 2]
    tree-walked symbols, from the last compile's automaton: on the
    micro suite's trained tree a compile fills a table cell in ~100 ns
    and the tree walk scores a symbol in ~200 ns. *)

val score_batch :
  t -> log_background:float array -> batch:Psa.batch -> Sequence.t array -> Similarity.result array
(** A block against the model, read-only (safe from any domain): the
    batched kernel when an automaton is cached, the tree walk per
    sequence otherwise. Never compiles and never counts. *)

val take_fresh : t -> Psa.t option
(** The automaton, if it was built since the last [take_fresh] and is
    still current — lets a caller announce quiet compiles made inside
    {!score} at the point where it would have compiled itself. *)
