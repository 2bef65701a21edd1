let log_src = Logs.Src.create "pst" ~doc:"Probabilistic suffix tree maintenance"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Hot-path instruments: registered once at module init, each event is a
   single branch while metrics are disabled (see Obs). Node creations and
   pruned nodes are summed locally and added once per insertion, merge or
   prune, not once per node. *)
let m_insertions = Obs.Metrics.counter "pst.insertions"
let m_symbols_inserted = Obs.Metrics.counter "pst.symbols_inserted"
let m_node_creations = Obs.Metrics.counter "pst.node_creations"
let m_prunings = Obs.Metrics.counter "pst.prunings"
let m_nodes_pruned = Obs.Metrics.counter "pst.nodes_pruned"
let m_prediction_lookups = Obs.Metrics.counter "pst.prediction_lookups"

type config = {
  alphabet_size : int;
  max_depth : int;
  significance : int;
  max_nodes : int;
  p_min : float;
  pruning : Pruning.strategy;
}

(* ------------------------------------------------------------------ *)
(* Node store                                                          *)
(* ------------------------------------------------------------------ *)

(* A node is a slot number. Slot [n]'s fields are the [stride] ints at
   [nodes.{n * stride + f}]. Child links and next-symbol counts live in
   [arena] as blocks of (symbol, value) pairs sorted by symbol: a block
   at offset [o] holds its capacity class k (room for 2^k pairs) at
   [o], the number of pairs in use at [o + 1], and pair j at [o + 2 + 2j]
   (symbol) and [o + 3 + 2j] (value: child slot or count). A node without
   children or without next counts has no block (-1); a child block that
   pruning empties is freed. Pruning frees slots onto [free_slot] (linked
   through [f_parent], [f_depth] set to -1) and blocks onto the free list
   of their class (linked through the length cell); insertion reuses
   both before growing either array.

   Both arrays are int Bigarrays, off the OCaml heap: the major GC does
   not scan them on every cycle, and the array a doubling replaces is
   released when the GC collects its small header block. DESIGN.md §15
   ("PST node store") has the rationale. *)
type node = int
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let stride = 7
let f_count = 0
let f_next_total = 1
let f_parent = 2 (* -1 at the root; next free slot while free *)
let f_depth = 3 (* label length; -1 while free *)
let f_sym = 4 (* edge symbol from the parent; -1 at the root *)
let f_kids = 5 (* child block: symbol -> slot of the child labelled symbol·label *)
let f_next = 6 (* next block: symbol -> C(label · symbol) *)
let root_slot = 0
let n_classes = 32

type t = {
  cfg : config;
  log_uniform : float;
  mutable n_nodes : int;
  mutable nodes : ints;
  mutable slots_used : int; (* slots ever handed out *)
  mutable free_slot : int;
  mutable arena : ints;
  mutable arena_used : int;
  free_block : int array; (* capacity class -> first free block, or -1 *)
}

let default_config ~alphabet_size =
  {
    alphabet_size;
    max_depth = 10;
    significance = 30;
    max_nodes = 20_000;
    p_min = Float.min 1e-3 (1.0 /. (4.0 *. float_of_int alphabet_size));
    pruning = Pruning.Smallest_count_first;
  }

let[@inline] get t n f = Bigarray.Array1.unsafe_get t.nodes ((n * stride) + f)
let[@inline] set t n f v = Bigarray.Array1.unsafe_set t.nodes ((n * stride) + f) v

(* A copy of [a]'s first [used] cells in a fresh array of [cap] cells. *)
let resized (a : ints) ~used ~cap =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 used) (Bigarray.Array1.sub b 0 used);
  b

(* --- arena blocks --- *)

let[@inline] block_len (a : ints) o = Bigarray.Array1.unsafe_get a (o + 1)
let[@inline] pair_sym (a : ints) o j = Bigarray.Array1.unsafe_get a (o + 2 + (2 * j))
let[@inline] pair_val (a : ints) o j = Bigarray.Array1.unsafe_get a (o + 3 + (2 * j))

(* Index of [sym] among the block's pairs, or [lnot] of its insertion
   point when absent. *)
let rec bsearch a o (sym : int) lo hi =
  if lo > hi then lnot lo
  else
    let mid = (lo + hi) lsr 1 in
    let s = pair_sym a o mid in
    if s = sym then mid
    else if s < sym then bsearch a o sym (mid + 1) hi
    else bsearch a o sym lo (mid - 1)

(* Small blocks (most of them) are scanned; only shallow nodes' wide
   blocks are bisected. *)
let rec scan a o (sym : int) j len =
  if j = len then lnot j
  else
    let s = pair_sym a o j in
    if s = sym then j else if s > sym then lnot j else scan a o sym (j + 1) len

let[@inline] block_find a o sym =
  if o < 0 then -1
  else
    let len = block_len a o in
    if len <= 8 then scan a o sym 0 len else bsearch a o sym 0 (len - 1)

let block_alloc t k =
  let o = t.free_block.(k) in
  if o >= 0 then begin
    t.free_block.(k) <- t.arena.{o + 1};
    t.arena.{o + 1} <- 0;
    o
  end
  else begin
    let o = t.arena_used and size = 2 + (2 lsl k) in
    let cap = Bigarray.Array1.dim t.arena in
    if o + size > cap then t.arena <- resized t.arena ~used:o ~cap:(max (o + size) (2 * cap));
    t.arena_used <- o + size;
    t.arena.{o} <- k;
    t.arena.{o + 1} <- 0;
    o
  end

let block_free t o =
  let k = t.arena.{o} in
  t.arena.{o + 1} <- t.free_block.(k);
  t.free_block.(k) <- o

(* Insert pair ([sym], [v]) at index [j] of node [n]'s block in field
   [f], creating the block or moving it to the next class when full. *)
let block_insert t n f j sym v =
  let o = get t n f in
  let o =
    if o < 0 then begin
      let o = block_alloc t 0 in
      set t n f o;
      o
    end
    else
      let k = t.arena.{o} and len = block_len t.arena o in
      if len < 1 lsl k then o
      else begin
        let o' = block_alloc t (k + 1) in
        let a = t.arena in
        for i = 2 to 1 + (2 * len) do
          a.{o' + i} <- a.{o + i}
        done;
        a.{o' + 1} <- len;
        block_free t o;
        set t n f o';
        o'
      end
  in
  let a = t.arena in
  let len = block_len a o in
  for i = o + 1 + (2 * len) downto o + 2 + (2 * j) do
    a.{i + 2} <- a.{i}
  done;
  a.{o + 2 + (2 * j)} <- sym;
  a.{o + 3 + (2 * j)} <- v;
  a.{o + 1} <- len + 1

let block_remove (a : ints) o j =
  let len = block_len a o in
  for i = o + 4 + (2 * j) to o + 1 + (2 * len) do
    a.{i - 2} <- a.{i}
  done;
  a.{o + 1} <- len - 1

(* --- slots --- *)

let new_slot t ~parent ~sym ~depth =
  let n =
    if t.free_slot >= 0 then begin
      let n = t.free_slot in
      t.free_slot <- get t n f_parent;
      n
    end
    else begin
      let n = t.slots_used in
      let cap = Bigarray.Array1.dim t.nodes in
      if (n + 1) * stride > cap then
        t.nodes <- resized t.nodes ~used:(n * stride) ~cap:(max ((n + 1) * stride) (2 * cap));
      t.slots_used <- n + 1;
      n
    end
  in
  set t n f_count 0;
  set t n f_next_total 0;
  set t n f_parent parent;
  set t n f_depth depth;
  set t n f_sym sym;
  set t n f_kids (-1);
  set t n f_next (-1);
  t.n_nodes <- t.n_nodes + 1;
  n

let[@inline] find_child t n sym =
  let o = get t n f_kids in
  let j = block_find t.arena o sym in
  if j >= 0 then pair_val t.arena o j else -1

let child_or_create t p sym =
  let o = get t p f_kids in
  let j = block_find t.arena o sym in
  if j >= 0 then pair_val t.arena o j
  else begin
    let c = new_slot t ~parent:p ~sym ~depth:(get t p f_depth + 1) in
    block_insert t p f_kids (lnot j) sym c;
    c
  end

(* C(label · sym) += d, creating the pair when absent. *)
let add_next t n sym d =
  let o = get t n f_next in
  let j = block_find t.arena o sym in
  if j >= 0 then begin
    let i = o + 3 + (2 * j) in
    t.arena.{i} <- t.arena.{i} + d
  end
  else block_insert t n f_next (lnot j) sym d

(* C(label · sym) := c, as a deserialised counter line says. *)
let set_next t n sym c =
  let o = get t n f_next in
  let j = block_find t.arena o sym in
  if j >= 0 then t.arena.{o + 3 + (2 * j)} <- c else block_insert t n f_next (lnot j) sym c

let next_count_of t n sym =
  let o = get t n f_next in
  let j = block_find t.arena o sym in
  if j >= 0 then pair_val t.arena o j else 0

let create cfg =
  if cfg.alphabet_size <= 0 then invalid_arg "Pst.create: alphabet_size";
  if cfg.max_depth <= 0 then invalid_arg "Pst.create: max_depth";
  if cfg.significance <= 0 then invalid_arg "Pst.create: significance";
  if cfg.max_nodes < 1 then invalid_arg "Pst.create: max_nodes";
  if cfg.p_min < 0.0 || cfg.p_min *. float_of_int cfg.alphabet_size >= 1.0 then
    invalid_arg "Pst.create: p_min must satisfy 0 <= n*p_min < 1";
  let t =
    {
      cfg;
      log_uniform = -.log (float_of_int cfg.alphabet_size);
      n_nodes = 0;
      nodes = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (16 * stride);
      slots_used = 0;
      free_slot = -1;
      arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 64;
      arena_used = 0;
      free_block = Array.make n_classes (-1);
    }
  in
  ignore (new_slot t ~parent:(-1) ~sym:(-1) ~depth:0);
  t

let config t = t.cfg
let n_nodes t = t.n_nodes
let total_count t = get t root_slot f_count
let root _ = root_slot

(* A handle to a slot in use: in range and not marked free. *)
let[@inline] valid t n = n >= 0 && n < t.slots_used && get t n f_depth >= 0

let check_node fn t n = if not (valid t n) then invalid_arg ("Pst." ^ fn ^ ": dead node")

let node_count t n =
  check_node "node_count" t n;
  get t n f_count

let node_depth t n =
  check_node "node_depth" t n;
  get t n f_depth

let is_significant t n = get t n f_depth = 0 || get t n f_count >= t.cfg.significance

(* ------------------------------------------------------------------ *)
(* Pruning (paper Sec. 5.1)                                            *)
(* ------------------------------------------------------------------ *)

(* Return [n]'s subtree to the free lists and count its nodes. *)
let rec free_subtree t n =
  let freed = ref 1 in
  let o = get t n f_kids in
  if o >= 0 then begin
    for j = 0 to block_len t.arena o - 1 do
      freed := !freed + free_subtree t (pair_val t.arena o j)
    done;
    block_free t o
  end;
  let o = get t n f_next in
  if o >= 0 then block_free t o;
  set t n f_depth (-1);
  set t n f_parent t.free_slot;
  t.free_slot <- n;
  !freed

(* Unlink live non-root node [n] from its parent and free its subtree. *)
let unlink t n =
  let p = get t n f_parent in
  let o = get t p f_kids in
  block_remove t.arena o (block_find t.arena o (get t n f_sym));
  if block_len t.arena o = 0 then begin
    block_free t o;
    set t p f_kids (-1)
  end;
  let sz = free_subtree t n in
  t.n_nodes <- t.n_nodes - sz;
  sz

let detach t n =
  if n <> root_slot && valid t n then Obs.Metrics.incr ~by:(unlink t n) m_nodes_pruned

(* Scratch for one prune, per domain so shard tasks never share it:
   [slots] holds the nodes in reverse preorder, [packed] the sort keys.
   Grown, never shrunk, so a prune allocates nothing once the domain has
   pruned a tree of this size. *)
type scratch = { mutable slots : int array; mutable packed : int array }

let scratch_key = Domain.DLS.new_key (fun () -> { slots = [||]; packed = [||] })

let scratch m =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.slots < m then begin
    let cap = max m (2 * Array.length s.slots) in
    s.slots <- Array.make cap 0;
    s.packed <- Array.make cap 0
  end;
  s

(* Write every node below [n] into [buf], in preorder with children in
   symbol order, from position [pos - 1] downwards; returns the last
   position written. The root's call fills [buf.(0 .. n_nodes - 2)] with
   the nodes in reverse preorder. *)
let rec collect t buf n pos =
  let o = get t n f_kids in
  if o < 0 then pos
  else begin
    let pos = ref pos in
    for j = 0 to block_len t.arena o - 1 do
      let c = pair_val t.arena o j in
      decr pos;
      buf.(!pos) <- c;
      pos := collect t buf c !pos
    done;
    !pos
  end

(* The orders prune_ordered ranks by; every key is a function of a
   node's count and depth. *)
type order =
  | Count_first  (** (count, -depth): Smallest_count_first *)
  | Label_first  (** (-depth, count): Longest_label_first *)
  | Insignificant_first
      (** insignificant nodes by (count, -depth), then every significant
          node tied: Expected_vector_first's first phase *)

let[@inline] key1 order sig_ c d =
  match order with
  | Count_first -> c
  | Label_first -> -d
  | Insignificant_first -> if c < sig_ then c else sig_

let[@inline] key2 order sig_ c d =
  match order with
  | Count_first -> -d
  | Label_first -> c
  | Insignificant_first -> if c < sig_ then -d else 0

let rec bits r = if r = 0 then 0 else 1 + bits (r lsr 1)

(* Remove whole subtrees in increasing (key1, key2) order until under
   [target]. The nodes are ranked in reverse preorder; [Array.sort] is
   not stable, so positions decide how ties rank, and the pruning
   reference in lib/check (Ref_prune) sorts (key, node) pairs of that
   same sequence with polymorphic [compare].

   Here each node becomes one int: its two keys, shifted to start at 0,
   concatenated above its position. [Key_sort] compares only the key
   bits and makes the stdlib heapsort's moves, so the permutation — tie
   order included — is the reference's. Keys too wide to pack (counts
   above 2^43 at the default budget) fall back to [Array.sort] on a
   permutation with the same comparison signs.

   Under Count_first and Label_first a child always ranks before its
   parent (a child's count is at most its parent's, and it is deeper), so
   every detach removes a leaf; Insignificant_first ties significant
   nodes, so it may cut a whole subtree, whose later entries then find
   their slots marked free. *)
let prune_ordered t target order =
  let m = t.n_nodes - 1 in
  let s = scratch m in
  let slots = s.slots and packed = s.packed in
  ignore (collect t slots root_slot m);
  let sig_ = t.cfg.significance in
  let lo1 = ref max_int and hi1 = ref min_int and lo2 = ref max_int and hi2 = ref min_int in
  for p = 0 to m - 1 do
    let n = slots.(p) in
    let c = get t n f_count and d = get t n f_depth in
    let k1 = key1 order sig_ c d and k2 = key2 order sig_ c d in
    if k1 < !lo1 then lo1 := k1;
    if k1 > !hi1 then hi1 := k1;
    if k2 < !lo2 then lo2 := k2;
    if k2 > !hi2 then hi2 := k2
  done;
  let r1 = !hi1 - !lo1 and r2 = !hi2 - !lo2 in
  let w2 = bits r2 and wp = bits (m - 1) in
  let ranked =
    if r1 >= 0 && r2 >= 0 && bits r1 + w2 + wp <= 62 then begin
      for p = 0 to m - 1 do
        let n = slots.(p) in
        let c = get t n f_count and d = get t n f_depth in
        let k = ((key1 order sig_ c d - !lo1) lsl w2) lor (key2 order sig_ c d - !lo2) in
        packed.(p) <- (k lsl wp) lor p
      done;
      Key_sort.sort packed ~len:m ~shift:wp;
      let mask = (1 lsl wp) - 1 in
      for i = 0 to m - 1 do
        packed.(i) <- packed.(i) land mask
      done;
      packed
    end
    else begin
      let k i f = let n = slots.(i) in f order sig_ (get t n f_count) (get t n f_depth) in
      let perm = Array.init m Fun.id in
      Array.sort
        (fun i j ->
          let c = Int.compare (k i key1) (k j key1) in
          if c <> 0 then c else Int.compare (k i key2) (k j key2))
        perm;
      perm
    end
  in
  let i = ref 0 in
  while t.n_nodes > target && !i < m do
    let n = slots.(ranked.(!i)) in
    if get t n f_depth >= 0 then ignore (unlink t n);
    incr i
  done

(* L1 distance between a node's conditional distribution and its parent's:
   small distance = "expected" probability vector (strategy 3). *)
let divergence_from_parent t n =
  let p = get t n f_parent in
  if p < 0 then infinity
  else begin
    let raw n tot sym =
      if tot = 0 then 0.0 else float_of_int (next_count_of t n sym) /. float_of_int tot
    in
    let tn = get t n f_next_total and tp = get t p f_next_total in
    let acc = ref 0.0 in
    for sym = 0 to t.cfg.alphabet_size - 1 do
      acc := !acc +. Float.abs (raw n tn sym -. raw p tp sym)
    done;
    !acc
  end

let prune_expected_vector t target =
  prune_ordered t target Insignificant_first;
  (* Phase 2: while still over budget, peel leaves whose distribution is
     closest to their parent's, in reverse preorder among equal
     distances (a stable sort of the reverse-preorder leaf sequence). *)
  let stuck = ref false in
  while (not !stuck) && t.n_nodes > target do
    let m = t.n_nodes - 1 in
    let s = scratch m in
    ignore (collect t s.slots root_slot m);
    let leaves = s.packed and n_leaves = ref 0 in
    for p = 0 to m - 1 do
      let n = s.slots.(p) in
      if get t n f_kids < 0 then begin
        leaves.(!n_leaves) <- n;
        incr n_leaves
      end
    done;
    let dist = Array.init !n_leaves (fun i -> divergence_from_parent t leaves.(i)) in
    let rank = Array.init !n_leaves Fun.id in
    Array.stable_sort (fun i j -> Float.compare dist.(i) dist.(j)) rank;
    for i = 0 to min (t.n_nodes - target) !n_leaves - 1 do
      ignore (unlink t leaves.(rank.(i)))
    done;
    (* No leaf means only the root is left, which no target prunes. *)
    if !n_leaves = 0 then stuck := true
  done

let prune_to t target =
  let target = max 1 target in
  if t.n_nodes > target then begin
    Obs.Metrics.incr m_prunings;
    let before = t.n_nodes in
    (match t.cfg.pruning with
    | Pruning.Smallest_count_first -> prune_ordered t target Count_first
    | Pruning.Longest_label_first -> prune_ordered t target Label_first
    | Pruning.Expected_vector_first -> prune_expected_vector t target);
    Obs.Metrics.incr ~by:(before - t.n_nodes) m_nodes_pruned;
    Log.debug (fun m ->
        m "pruned %d -> %d nodes (target %d, %s)" before t.n_nodes target
          (Pruning.to_string t.cfg.pruning))
  end

let maybe_prune t =
  if t.n_nodes > t.cfg.max_nodes then
    (* Prune to 80% of the budget so insertion does not re-trigger at once. *)
    prune_to t (max 1 (t.cfg.max_nodes * 4 / 5))

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] bump t n next_sym =
  set t n f_count (get t n f_count + 1);
  if next_sym >= 0 then begin
    add_next t n next_sym 1;
    set t n f_next_total (get t n f_next_total + 1)
  end

let insert_segment t s ~lo ~hi =
  let len = Array.length s in
  if lo < 0 || hi >= len || lo > hi then invalid_arg "Pst.insert_segment";
  Obs.Metrics.incr m_insertions;
  Obs.Metrics.incr ~by:(hi - lo + 1) m_symbols_inserted;
  let before = t.n_nodes in
  for e = lo to hi do
    let next_sym = if e < hi then s.(e + 1) else -1 in
    bump t root_slot next_sym;
    (* Walk the reversed context s.(e), s.(e-1), ... down to [max_depth]. *)
    let node = ref root_slot in
    for d = 0 to min t.cfg.max_depth (e - lo + 1) - 1 do
      node := child_or_create t !node s.(e - d);
      bump t !node next_sym
    done
  done;
  Obs.Metrics.incr ~by:(t.n_nodes - before) m_node_creations;
  maybe_prune t

let insert_sequence t s =
  if Array.length s > 0 then insert_segment t s ~lo:0 ~hi:(Array.length s - 1)

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)
(* ------------------------------------------------------------------ *)

let prediction_node t s ~lo ~pos =
  (* Descend along s.(pos-1), s.(pos-2), ..., only into significant nodes. *)
  Obs.Metrics.incr m_prediction_lookups;
  let sig_ = t.cfg.significance and max_d = min t.cfg.max_depth (pos - lo) in
  let node = ref root_slot and d = ref 0 in
  while !d < max_d do
    let c = find_child t !node s.(pos - 1 - !d) in
    if c >= 0 && get t c f_count >= sig_ then begin
      node := c;
      incr d
    end
    else d := max_d
  done;
  !node

(* Shared by [next_log_prob] and [write_next_log_probs], so the two
   compute every estimate with the same float operations. Inlined, the
   result stays unboxed on its way into a float Bigarray. *)
let[@inline] smoothed_log_prob t count total =
  if total = 0 then t.log_uniform
  else begin
    let raw = float_of_int count /. float_of_int total in
    let n = float_of_int t.cfg.alphabet_size in
    let p =
      if t.cfg.p_min > 0.0 then ((1.0 -. (n *. t.cfg.p_min)) *. raw) +. t.cfg.p_min else raw
    in
    if p <= 0.0 then neg_infinity else log p
  end

let next_log_prob t node sym =
  if sym < 0 || sym >= t.cfg.alphabet_size then invalid_arg "Pst.next_log_prob";
  smoothed_log_prob t (next_count_of t node sym) (get t node f_next_total)

let write_next_log_probs t node
    (dst : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos =
  let n = t.cfg.alphabet_size in
  if pos < 0 || pos + n > Bigarray.Array1.dim dst then invalid_arg "Pst.write_next_log_probs";
  (* Every symbol without a counter gets the zero-count estimate, then
     each counter overwrites its own symbol: the same float per symbol as
     one [next_log_prob] call each. *)
  let total = get t node f_next_total in
  let absent = smoothed_log_prob t 0 total in
  for sym = 0 to n - 1 do
    Bigarray.Array1.unsafe_set dst (pos + sym) absent
  done;
  let o = get t node f_next in
  if o >= 0 then
    for j = 0 to block_len t.arena o - 1 do
      let sym = pair_sym t.arena o j in
      if sym >= 0 && sym < n then
        Bigarray.Array1.unsafe_set dst (pos + sym)
          (smoothed_log_prob t (pair_val t.arena o j) total)
    done

let log_prob t s ~lo ~pos = next_log_prob t (prediction_node t s ~lo ~pos) s.(pos)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let find_node t label =
  (* The node labeled s_j..s_{i-1} hangs off the path s_{i-1}, ..., s_j. *)
  let len = Array.length label in
  let rec go n d =
    if d = len then Some n
    else
      let c = find_child t n label.(len - 1 - d) in
      if c < 0 then None else go c (d + 1)
  in
  go root_slot 0

let next_count t n sym =
  check_node "next_count" t n;
  next_count_of t n sym

let next_total t n =
  check_node "next_total" t n;
  get t n f_next_total

(* [f sym value] over the pairs of node [n]'s block in [field]. *)
let iter_block t n field f =
  let o = get t n field in
  if o >= 0 then
    for j = 0 to block_len t.arena o - 1 do
      f (pair_sym t.arena o j) (pair_val t.arena o j)
    done

let iter_children t n f = iter_block t n f_kids f
let iter_next t n f = iter_block t n f_next f

let node_children t n =
  let acc = ref [] in
  iter_children t n (fun sym c -> acc := (sym, c) :: !acc);
  List.rev !acc

let next_distribution t n =
  Array.init t.cfg.alphabet_size (fun sym -> exp (next_log_prob t n sym))

let iter_nodes t f =
  let rec go n =
    f n;
    iter_children t n (fun _ c -> go c)
  in
  go root_slot

let node_label t n =
  (* Climbing to the root yields the path in root-to-node order, which
     spells the label reversed (the tree is built on reversed contexts);
     reverse once more for the original symbol order. *)
  let rec go n acc =
    if n = root_slot then acc else go (get t n f_parent) (get t n f_sym :: acc)
  in
  List.rev (go n [])

(* The arrays are copied up to their high-water marks, free lists
   included, so the copy's slots are the original's and every downstream
   operation (scoring, pruning scans) behaves bit-identically on it — the
   property the Check oracles rely on when snapshotting cluster models. *)
let copy t =
  {
    t with
    nodes = resized t.nodes ~used:(t.slots_used * stride) ~cap:(t.slots_used * stride);
    arena = resized t.arena ~used:t.arena_used ~cap:t.arena_used;
    free_block = Array.copy t.free_block;
  }

(* Counts-addition merge: a PST built from database A merged with one
   built from database B has exactly the counts of a PST built from
   A @ B (up to pruning), because every field is a sum of per-position
   observations. Children and counters are kept in symbol order, so the
   merged structure is independent of argument order — merge is
   commutative and associative under [equal_structure] as long as
   neither side has pruned. *)
let merge a b =
  if a.cfg <> b.cfg then invalid_arg "Pst.merge: configs differ";
  let t = copy a in
  let before = t.n_nodes in
  let rec add dst src =
    set t dst f_count (get t dst f_count + get b src f_count);
    set t dst f_next_total (get t dst f_next_total + get b src f_next_total);
    iter_next b src (add_next t dst);
    iter_children b src (fun sym child -> add (child_or_create t dst sym) child)
  in
  add root_slot root_slot;
  Obs.Metrics.incr ~by:(t.n_nodes - before) m_node_creations;
  maybe_prune t;
  t

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let format_version = 1

(* The writer targets an abstract string sink and the reader an abstract
   line source, so the same (versioned) format serves channels and
   in-memory strings alike. *)
let write_to emit t =
  let c = t.cfg in
  emit (Printf.sprintf "pst %d\n" format_version);
  emit
    (Printf.sprintf "config %d %d %d %d %.17g %s\n" c.alphabet_size c.max_depth c.significance
       c.max_nodes c.p_min (Pruning.to_string c.pruning));
  (* One line per node: the root-to-node edge path (reversed label),
     count, and next-symbol counters. Parents precede children in DFS
     order, so reconstruction can create nodes along the path. *)
  let rec emit_node path node =
    let buf = Buffer.create 64 in
    Buffer.add_string buf
      (Printf.sprintf "node %s %d"
         (if path = [] then "-" else String.concat "," (List.rev_map string_of_int path))
         (get t node f_count));
    iter_next t node (fun sym cnt -> Buffer.add_string buf (Printf.sprintf " %d:%d" sym cnt));
    Buffer.add_char buf '\n';
    emit (Buffer.contents buf);
    iter_children t node (fun sym child -> emit_node (sym :: path) child)
  in
  emit_node [] root_slot;
  emit "end\n"

let to_channel oc t = write_to (output_string oc) t

let to_string t =
  let buf = Buffer.create 1024 in
  write_to (Buffer.add_string buf) t;
  Buffer.contents buf

let read_from next_line =
  let fail msg = failwith ("Pst.of_channel: " ^ msg) in
  let line () = match next_line () with Some l -> l | None -> fail "truncated" in
  (match String.split_on_char ' ' (line ()) with
  | [ "pst"; v ] when int_of_string_opt v = Some format_version -> ()
  | _ -> fail "bad header or unsupported version");
  let t =
    match String.split_on_char ' ' (line ()) with
    | [ "config"; n; d; c; m; pmin; strategy ] -> (
        match
          ( int_of_string_opt n, int_of_string_opt d, int_of_string_opt c, int_of_string_opt m,
            float_of_string_opt pmin, Pruning.of_string strategy )
        with
        | Some n, Some d, Some c, Some m, Some pmin, Some strategy ->
            create
              { alphabet_size = n; max_depth = d; significance = c; max_nodes = m;
                p_min = pmin; pruning = strategy }
        | _ -> fail "bad config")
    | _ -> fail "bad config line"
  in
  let finished = ref false in
  while not !finished do
    match String.split_on_char ' ' (line ()) with
    | [ "end" ] -> finished := true
    | "node" :: path :: count :: next ->
        let path_syms =
          if path = "-" then []
          else
            List.map
              (fun x -> match int_of_string_opt x with Some v -> v | None -> fail "bad path")
              (String.split_on_char ',' path)
        in
        (* Walk the root-to-node edge path, creating nodes without counting. *)
        let node = List.fold_left (child_or_create t) root_slot path_syms in
        (match int_of_string_opt count with
        | Some c -> set t node f_count c
        | None -> fail "bad count");
        List.iter
          (fun pair ->
            match String.split_on_char ':' pair with
            | [ sym; cnt ] -> (
                match (int_of_string_opt sym, int_of_string_opt cnt) with
                | Some sym, Some cnt ->
                    set_next t node sym cnt;
                    set t node f_next_total (get t node f_next_total + cnt)
                | _ -> fail "bad next entry")
            | _ -> fail "bad next entry")
          next
    | _ -> fail "unexpected line"
  done;
  t

let of_channel ic = read_from (fun () -> try Some (input_line ic) with End_of_file -> None)

let of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  read_from (fun () ->
      match !lines with
      | [] -> None
      | l :: rest ->
          lines := rest;
          Some l)

let equal_structure a b =
  (* The (symbol, value) pairs of one of a node's blocks. *)
  let pairs t n iter =
    let acc = ref [] in
    iter t n (fun s v -> acc := (s, v) :: !acc);
    !acc
  in
  let rec eq na nb =
    get a na f_count = get b nb f_count
    && get a na f_next_total = get b nb f_next_total
    && pairs a na iter_next = pairs b nb iter_next
    &&
    let ka = pairs a na iter_children and kb = pairs b nb iter_children in
    List.map fst ka = List.map fst kb && List.for_all2 (fun (_, ca) (_, cb) -> eq ca cb) ka kb
  in
  a.cfg = b.cfg && eq root_slot root_slot

let pp ?(max_depth = 3) ?(min_count = 1) ~symbol fmt t =
  let rec render node =
    let depth = get t node f_depth and count = get t node f_count in
    if depth <= max_depth && (depth = 0 || count >= min_count) then begin
      let label = node_label t node in
      Format.fprintf fmt "%s" (String.make (2 * depth) ' ');
      if depth = 0 then Format.fprintf fmt "(root)"
      else List.iter (fun sym -> symbol fmt sym) label;
      Format.fprintf fmt "  C=%d%s" count (if is_significant t node then "*" else "");
      let total = get t node f_next_total in
      if total > 0 then begin
        (* Show the conditional distribution, most probable symbols first. *)
        let entries = ref [] in
        iter_next t node (fun sym c -> entries := (c, sym) :: !entries);
        Format.fprintf fmt "  P(next):";
        List.iteri
          (fun i (c, sym) ->
            if i < 4 then
              Format.fprintf fmt " %a=%.3f" symbol sym (float_of_int c /. float_of_int total))
          (List.sort (fun a b -> compare b a) !entries)
      end;
      Format.fprintf fmt "@.";
      iter_children t node (fun _ child -> render child)
    end
  in
  render root_slot

type stats = {
  nodes : int;
  significant_nodes : int;
  max_depth_used : int;
  approx_bytes : int;
}

let stats t =
  let nodes = ref 0 and sig_nodes = ref 0 and maxd = ref 0 in
  iter_nodes t (fun n ->
      incr nodes;
      if is_significant t n then incr sig_nodes;
      maxd := max !maxd (get t n f_depth));
  (* Allocated capacity, not just live slots: the node store and the
     arena (off-heap) plus the free-list heads and the tree record. *)
  let words =
    Bigarray.Array1.dim t.nodes + Bigarray.Array1.dim t.arena + (n_classes + 1) + 10
  in
  { nodes = !nodes; significant_nodes = !sig_nodes; max_depth_used = !maxd;
    approx_bytes = words * (Sys.word_size / 8) }
