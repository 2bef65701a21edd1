(* Compiling a frozen PST into a flat probabilistic suffix automaton.

   The tree's *active* nodes — the root plus every node whose whole root
   path has count >= significance — are exactly the nodes
   Pst.prediction_node can return: the greedy walk descends only into
   significant children, and since a node's tree ancestors are the
   shorter suffixes of its context (each PST edge prepends one *older*
   symbol), "reachable by the walk" = "every ancestor significant".
   The prediction for a history h is therefore the longest active
   suffix of h, capped at max_depth.

   Tracking "longest suffix of the input that belongs to a given string
   set" online is the Aho–Corasick problem. We build the AC automaton
   of the active labels written oldest-symbol-first: trie edges append
   one *newer* symbol, so reading the input left to right walks the
   trie, and the trie's inherent prefix-closure supplies precisely the
   extra states needed when the active set is not closed under dropping
   the newest symbol. That closure matters: on a *pruned* tree, a
   context w may be gone while its extension w·a survives (w lives in a
   different subtree than w·a, so subtree pruning can remove one
   without the other), and then the prediction depth jumps by more than
   one — a state per active node with a parent-recursion transition
   table gets this wrong, which is exactly what the fuzz oracle caught.
   On a never-pruned tree counts are monotone (every occurrence of w·a
   ending at position e contains an occurrence of w ending at e-1), the
   closure adds nothing, and states = active nodes.

   Failure links and the dense transition table come from the standard
   BFS (fail(child of u via a) = trans(fail u, a); trans(u, a) = child
   or trans(fail u, a)). Each state's *prediction node* is the deepest
   active suffix of its label — its own tree node when the label is an
   active context, else the failure chain's prediction (any active
   proper suffix is itself a trie node, hence a suffix of the failure
   target's label). Emissions are then precomputed with
   Pst.next_log_prob itself, so the stored floats are bit-equal to what
   the tree walk computes at score time.

   The finished tables live in Bigarrays, i.e. off the OCaml heap: the
   GC neither scans nor moves them, a compiled automaton is one flat
   malloc'd block per table, and Par worker domains read them without
   copies or cross-domain write traffic. A float64 Bigarray stores the
   exact IEEE double written into it, so off-heap storage changes no
   bit of any emission the tree walk would produce. *)

let m_compilations = Obs.Metrics.counter "pst.compilations"
let m_compiled_states = Obs.Metrics.counter "pst.compiled_states"
let m_table_bytes = Obs.Metrics.counter "pst.compiled_table_bytes"
let h_compile_seconds = Obs.Metrics.histogram "similarity.compile_seconds"

type trans_table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type emit_table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  alphabet_size : int;
  n_states : int;
  trans : trans_table; (* state * n + sym -> next state *)
  emit : emit_table; (* state * n + sym -> log P(sym | prediction ctx) *)
  pred_depth : int array; (* state -> depth of its prediction node *)
}

let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let alphabet_size t = t.alphabet_size
let n_states t = t.n_states
let transitions t = t.trans
let emissions t = t.emit
let prediction_depth t i = t.pred_depth.(i)
let step t state sym = Bigarray.Array1.get t.trans ((state * t.alphabet_size) + sym)
let emission t state sym = Bigarray.Array1.get t.emit ((state * t.alphabet_size) + sym)

let table_bytes t =
  (* 8 bytes per cell in both tables (int and float64 elements). *)
  8 * ((Bigarray.Array1.dim t.trans + Bigarray.Array1.dim t.emit) + Array.length t.pred_depth)

let compile pst =
  let t0 = if Obs.Metrics.is_enabled () then Timer.now_ns () else 0L in
  let cfg = Pst.config pst in
  let n = cfg.Pst.alphabet_size in
  let sigma = cfg.Pst.significance in
  let root = Pst.root pst in
  (* --- 1. trie of active labels, oldest symbol first --- *)
  (* Sized once from the active-node count, which is exact on a
     never-pruned tree (the closure adds no states); a pruned tree's
     closure states grow it by doubling. The trie's child table is the
     transition table itself ([-1] = no child; step 2 fills the gaps in
     place), so the only heap scratch is a few words per state.
     [anode] maps a state to its active tree node, with the root as the
     "none" sentinel for every state but 0. *)
  let n_active = ref 0 and max_active_depth = ref 0 in
  let rec count_active node =
    incr n_active;
    max_active_depth := max !max_active_depth (Pst.node_depth pst node);
    Pst.iter_children pst node (fun _ child ->
        if Pst.node_count pst child >= sigma then count_active child)
  in
  count_active root;
  let new_table cells =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
    Bigarray.Array1.fill a (-1);
    a
  in
  let cap = ref !n_active in
  let trans = ref (new_table (!cap * n)) in
  let anode = ref (Array.make !cap root) in
  let count = ref 1 in
  let grow () =
    let cap' = 2 * !cap in
    let t' = new_table (cap' * n) in
    Bigarray.Array1.blit !trans (Bigarray.Array1.sub t' 0 (!cap * n));
    trans := t';
    let a' = Array.make cap' root in
    Array.blit !anode 0 a' 0 !cap;
    anode := a';
    cap := cap'
  in
  let add_child u a =
    let c = Bigarray.Array1.get !trans ((u * n) + a) in
    if c >= 0 then c
    else begin
      if !count >= !cap then grow ();
      let id = !count in
      incr count;
      Bigarray.Array1.set !trans ((u * n) + a) id;
      id
    end
  in
  (* DFS over active tree nodes. [path.(k)] is the PST edge symbol at
     depth [k + 1]; PST edges prepend older symbols, so a depth-[d]
     node's label, oldest symbol first, is [path.(d-1) .. path.(0)]. *)
  let path = Array.make (max 1 !max_active_depth) 0 in
  let rec dfs node d =
    let u = ref 0 in
    for k = d - 1 downto 0 do
      u := add_child !u path.(k)
    done;
    !anode.(!u) <- node;
    Pst.iter_children pst node (fun s child ->
        if Pst.node_count pst child >= sigma then begin
          path.(d) <- s;
          dfs child (d + 1)
        end)
  in
  dfs root 0;
  let n_states = !count in
  let anode = !anode in
  let trans =
    if !cap = n_states then !trans
    else begin
      let exact = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (n_states * n) in
      Bigarray.Array1.blit (Bigarray.Array1.sub !trans 0 (n_states * n)) exact;
      exact
    end
  in
  (* --- 2. failure links + dense transitions, BFS (parents first) --- *)
  let fail = Array.make n_states 0 in
  let pred = Array.make n_states root in
  let queue = Array.make n_states 0 in
  let q_head = ref 0 and q_tail = ref 0 in
  let discover c failure =
    fail.(c) <- failure;
    (pred.(c) <- (let nd = anode.(c) in if nd != root then nd else pred.(failure)));
    queue.(!q_tail) <- c;
    incr q_tail
  in
  for a = 0 to n - 1 do
    let c = Bigarray.Array1.get trans a in
    if c >= 0 then discover c 0 else Bigarray.Array1.set trans a 0
  done;
  while !q_head < !q_tail do
    let u = queue.(!q_head) in
    incr q_head;
    let base = u * n and fbase = fail.(u) * n in
    for a = 0 to n - 1 do
      let c = Bigarray.Array1.get trans (base + a) in
      (* [fail u] is shallower, so its row is already final. *)
      if c >= 0 then discover c (Bigarray.Array1.get trans (fbase + a))
      else Bigarray.Array1.set trans (base + a) (Bigarray.Array1.get trans (fbase + a))
    done
  done;
  (* --- 3. emissions via the tree's own smoothing: bit-equal floats --- *)
  let emit = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n_states * n) in
  let pred_depth = Array.make n_states 0 in
  for u = 0 to n_states - 1 do
    let nd = pred.(u) in
    pred_depth.(u) <- Pst.node_depth pst nd;
    Pst.write_next_log_probs pst nd emit ~pos:(u * n)
  done;
  Obs.Metrics.incr m_compilations;
  Obs.Metrics.incr ~by:n_states m_compiled_states;
  let t = { alphabet_size = n; n_states; trans; emit; pred_depth } in
  Obs.Metrics.incr ~by:(table_bytes t) m_table_bytes;
  if Obs.Metrics.is_enabled () then
    Obs.Metrics.observe h_compile_seconds (Timer.span_s t0 (Timer.now_ns ()));
  t

(* --- batch scoring ---------------------------------------------------- *)

(* Reusable scratch for [score_batch]: one slot per lane (= sequence in
   the block) across five parallel columns. All columns are plain
   pre-sized OCaml arrays — the float columns are unboxed float arrays —
   so a scan performs zero heap allocation per symbol or per lane; the
   only per-call allocation is whatever the caller does with the
   results. *)
type batch = {
  mutable cap : int;
  mutable acc_y : float array; (* Kadane running-segment accumulator *)
  mutable acc_z : float array; (* best log-similarity so far (output) *)
  mutable seg_start : int array; (* start of the running segment *)
  mutable lo : int array; (* winning segment bounds (outputs) *)
  mutable hi : int array;
}

let batch_create ?(capacity = 64) () =
  let cap = max 1 capacity in
  {
    cap;
    acc_y = Array.make cap neg_infinity;
    acc_z = Array.make cap neg_infinity;
    seg_start = Array.make cap 0;
    lo = Array.make cap 0;
    hi = Array.make cap 0;
  }

let batch_capacity b = b.cap

let ensure_capacity b n =
  if n > b.cap then begin
    let cap = max n (2 * b.cap) in
    b.cap <- cap;
    b.acc_y <- Array.make cap neg_infinity;
    b.acc_z <- Array.make cap neg_infinity;
    b.seg_start <- Array.make cap 0;
    b.lo <- Array.make cap 0;
    b.hi <- Array.make cap 0
  end

let batch_log_sim b j = b.acc_z.(j)
let batch_seg_lo b j = b.lo.(j)
let batch_seg_hi b j = b.hi.(j)

(* One automaton over a block of sequences, lane-major: each lane is
   scanned to completion with the automaton state in an immediate
   (unallocated) ref and the Kadane floats in the unboxed scratch
   columns above — the whole block costs zero heap words per symbol,
   while each sequence streams through cache linearly exactly like the
   serial scan. (A position-major variant — all lanes advancing one
   symbol per step against a state column — was measured ~25% slower:
   automaton states diverge across lanes within a few symbols, so
   interleaving buys no table-row reuse and pays a lane gather per
   symbol.)

   Per lane, the float operations are the ones [Similarity.score_psa]
   performs, on the same values in the same order — lanes never interact
   — so every output is bit-for-bit what the serial scan returns (the
   QCheck properties and fuzz check #6 enforce exact equality). *)
let score_batch t ~log_background ~batch seqs =
  let b = Array.length seqs in
  ensure_capacity batch b;
  let n = t.alphabet_size in
  if Array.length log_background < n then
    invalid_arg "Psa.score_batch: log_background shorter than the alphabet";
  let acc_y = batch.acc_y
  and acc_z = batch.acc_z
  and seg_start = batch.seg_start
  and lo = batch.lo
  and hi = batch.hi in
  let trans = t.trans and emit = t.emit in
  for j = 0 to b - 1 do
    let s = Array.unsafe_get seqs j in
    let l = Array.length s in
    acc_y.(j) <- neg_infinity;
    acc_z.(j) <- neg_infinity;
    seg_start.(j) <- 0;
    (* Empty lanes keep the [empty_result] sentinel bounds; non-empty
       lanes start at [0, 0] exactly like the serial scan. *)
    if l = 0 then begin
      lo.(j) <- -1;
      hi.(j) <- -1
    end
    else begin
      lo.(j) <- 0;
      hi.(j) <- 0;
      let state = ref 0 in
      for i = 0 to l - 1 do
        let sym = Array.unsafe_get s i in
        if sym < 0 || sym >= n then
          invalid_arg "Psa.score_batch: symbol outside the compiled alphabet";
        let idx = (!state * n) + sym in
        let x =
          Bigarray.Array1.unsafe_get emit idx -. Array.unsafe_get log_background sym
        in
        let y = Array.unsafe_get acc_y j in
        let extend = y >= 0.0 in
        let y' = if extend then y +. x else x in
        let start' = if extend then Array.unsafe_get seg_start j else i in
        state := Bigarray.Array1.unsafe_get trans idx;
        Array.unsafe_set acc_y j y';
        Array.unsafe_set seg_start j start';
        if y' > Array.unsafe_get acc_z j then begin
          Array.unsafe_set acc_z j y';
          Array.unsafe_set lo j start';
          Array.unsafe_set hi j i
        end
      done
    end
  done
