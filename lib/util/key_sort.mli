(** In-place heapsort of packed int keys.

    {!sort} is [Stdlib.Array.sort]'s ternary heapsort specialised to int
    arrays whose elements carry a sort key in their high bits and a
    payload (typically a position) in their low [shift] bits. Only the
    key bits are compared, and the code makes the same comparisons and
    the same moves as [Array.sort (fun x y -> compare (x lsr shift)
    (y lsr shift))] on [Array.sub a 0 len] — so ties among equal keys
    end up in exactly the (unstable) order the stdlib sort gives them.
    Unlike that call it allocates nothing and calls no closure. *)

val sort : int array -> len:int -> shift:int -> unit
(** [sort a ~len ~shift] sorts [a.(0) .. a.(len - 1)] by
    [x lsr shift], ascending. Elements must be non-negative. Raises
    [Invalid_argument] if [len] exceeds [Array.length a] or [shift] lies
    outside [\[0, 62\]]. *)
