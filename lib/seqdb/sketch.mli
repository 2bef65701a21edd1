(** Shared q-gram key kernel.

    The [Qgram] baseline keys its count profiles with this primitive:
    turn a length-[q] window of symbol codes into a single [int] key,
    cheaply and deterministically.

    Keys are {e packed} whenever they can be exact: for [q <= 3] and
    symbol codes below [2^20], the key is the base-[2^20] packing of the
    window, so distinct q-grams always get distinct keys (no collisions).
    Outside that envelope (longer grams, or pathological symbol codes)
    keys fall back to an iterated 64-bit mix; collisions are then
    possible in principle but negligible in practice. The choice of
    representation depends only on the gram's own contents, so the same
    gram always maps to the same key regardless of which sequence it came
    from. *)

val packed_q_limit : int
(** Largest [q] for which keys are exact packings ([3]). *)

val packed_symbol_limit : int
(** Symbol codes must be below this ([2^20]) for packed keys. *)

val gram_key : Sequence.t -> pos:int -> q:int -> int
(** [gram_key s ~pos ~q] is the key of the window [s.(pos) ..
    s.(pos+q-1)]. No bounds checking beyond the array's own. The result
    is non-negative. *)
