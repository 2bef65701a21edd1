open Bigarray

type ints = (int, int_elt, c_layout) Array1.t
type floats = (float, float64_elt, c_layout) Array1.t

(* A tree's significant subtree laid out breadth-first, so each node's
   children sit in one contiguous, symbol-ordered run. Node 0 is the
   root. *)
type profile = {
  n : int;  (* alphabet size *)
  sym : ints;  (* edge symbol from the parent; -1 at the root *)
  count : ints;  (* occurrence count C *)
  first : ints;  (* children of node i: first.{i} .. first.{i+1} - 1 *)
  p : floats;  (* smoothed P(s | node i) at i·n + s *)
  log_p : floats;  (* log of the same, as Pst.next_log_prob gives it *)
}

let profile t =
  let n = (Pst.config t).Pst.alphabet_size in
  let root = Pst.root t in
  (* Counts fall monotonically down a path and pruning detaches whole
     subtrees, so descending only into significant children reaches
     every significant node. *)
  let rec size node =
    let acc = ref 1 in
    Pst.iter_children t node (fun _ c -> if Pst.is_significant t c then acc := !acc + size c);
    !acc
  in
  let m = size root in
  let ints len = Array1.create int c_layout len in
  let floats len = Array1.create float64 c_layout len in
  let sym = ints m and count = ints m and first = ints (m + 1) in
  let p = floats (m * n) and log_p = floats (m * n) in
  let nodes = Array.make m root in
  sym.{0} <- -1;
  count.{0} <- Pst.node_count t root;
  let tail = ref 1 in
  for i = 0 to m - 1 do
    let node = nodes.(i) in
    first.{i} <- !tail;
    Pst.iter_children t node (fun s c ->
        if Pst.is_significant t c then begin
          nodes.(!tail) <- c;
          sym.{!tail} <- s;
          count.{!tail} <- Pst.node_count t c;
          incr tail
        end);
    Pst.write_next_log_probs t node log_p ~pos:(i * n);
    for k = i * n to (i * n) + n - 1 do
      p.{k} <- exp log_p.{k}
    done
  done;
  first.{m} <- !tail;
  { n; sym; count; first; p; log_p }

(* The one kernel behind every measure: a merge-walk of both profiles'
   child runs in symbol order. [ia]/[ib] is the path's node on each
   side, or -1 once that side has no significant node there; [da]/[db]
   is that side's deepest significant node on the path — the node a
   query for this context would predict from. Every node below the root
   on either side is a context, weighted by its counts on the sides
   where it is significant. *)
let weighted_average ~kl a b =
  if a.n <> b.n then invalid_arg "Divergence: alphabet size mismatch";
  let n = a.n in
  let acc = [| 0.0; 0.0 |] (* Σ weight·value, Σ weight *) in
  let context da db weight =
    let oa = da * n and ob = db * n in
    let v = ref 0.0 in
    if kl then
      for s = 0 to n - 1 do
        let x = Array1.unsafe_get a.p (oa + s) and y = Array1.unsafe_get b.p (ob + s) in
        if x > 0.0 && y > 0.0 then
          v :=
            !v
            +. (x -. y)
               *. (Array1.unsafe_get a.log_p (oa + s) -. Array1.unsafe_get b.log_p (ob + s))
      done
    else
      for s = 0 to n - 1 do
        v := !v +. Float.abs (Array1.unsafe_get a.p (oa + s) -. Array1.unsafe_get b.p (ob + s))
      done;
    let w = float_of_int weight in
    acc.(0) <- acc.(0) +. (w *. !v);
    acc.(1) <- acc.(1) +. w
  in
  let rec walk ia ib da db =
    let i = ref (if ia >= 0 then a.first.{ia} else 0) in
    let i_end = if ia >= 0 then a.first.{ia + 1} else 0 in
    let j = ref (if ib >= 0 then b.first.{ib} else 0) in
    let j_end = if ib >= 0 then b.first.{ib + 1} else 0 in
    while !i < i_end || !j < j_end do
      let sa = if !i < i_end then a.sym.{!i} else max_int in
      let sb = if !j < j_end then b.sym.{!j} else max_int in
      if sa < sb then begin
        context !i db a.count.{!i};
        walk !i (-1) !i db;
        incr i
      end
      else if sb < sa then begin
        context da !j b.count.{!j};
        walk (-1) !j da !j;
        incr j
      end
      else begin
        context !i !j (a.count.{!i} + b.count.{!j});
        walk !i !j !i !j;
        incr i;
        incr j
      end
    done
  in
  walk 0 0 0 0;
  if acc.(1) = 0.0 then 0.0 else acc.(0) /. acc.(1)

let profile_variational a b = weighted_average ~kl:false a b
let profile_kl_symmetric a b = weighted_average ~kl:true a b

let variational a b = profile_variational (profile a) (profile b)
let kl_symmetric a b = profile_kl_symmetric (profile a) (profile b)
