(* Every non-root node in reverse preorder: [Pst.iter_nodes] visits in
   preorder, root first, and prepending reverses that. *)
let all_nodes_below t =
  let root = Pst.root t in
  let acc = ref [] in
  Pst.iter_nodes t (fun n -> if n != root then acc := n :: !acc);
  !acc

let prune_ordered t target order_key =
  let keyed = Array.map (fun n -> (order_key n, n)) (Array.of_list (all_nodes_below t)) in
  Array.sort (fun (a, _) (b, _) -> compare a b) keyed;
  let i = ref 0 in
  while Pst.n_nodes t > target && !i < Array.length keyed do
    Pst.detach t (snd keyed.(!i));
    incr i
  done

let prune_expected_vector t target =
  let sig_ = (Pst.config t).Pst.significance in
  let count = Pst.node_count t and depth = Pst.node_depth t in
  prune_ordered t target (fun n ->
      if count n < sig_ then (0, count n, -depth n) else (1, max_int, 0));
  while Pst.n_nodes t > target do
    let leaves = List.filter (fun n -> Pst.node_children t n = []) (all_nodes_below t) in
    match leaves with
    | [] -> raise Exit
    | _ ->
        let keyed =
          List.map (fun n -> (Pst.divergence_from_parent t n, n)) leaves
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let excess = Pst.n_nodes t - target in
        List.iteri (fun i (_, n) -> if i < excess then Pst.detach t n) keyed
  done

let prune_to t target =
  let target = max 1 target in
  if Pst.n_nodes t > target then
    let count = Pst.node_count t and depth = Pst.node_depth t in
    match (Pst.config t).Pst.pruning with
    | Pruning.Smallest_count_first -> prune_ordered t target (fun n -> (count n, -depth n))
    | Pruning.Longest_label_first -> prune_ordered t target (fun n -> (-depth n, count n))
    | Pruning.Expected_vector_first -> ( try prune_expected_vector t target with Exit -> ())
