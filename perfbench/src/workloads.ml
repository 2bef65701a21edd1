(* The benchmark's workloads: how each input is generated from the seed,
   and the configuration the program runs it with. README.md in this
   directory records why each was chosen.

   [scale] shrinks the generated input (tests use a tiny scale for smoke
   runs); the benchmark itself always runs at scale 1. *)

type kind = Synth_batch | Protein_observed

let all = [ Synth_batch; Protein_observed ]
let name = function Synth_batch -> "synth-batch" | Protein_observed -> "protein-observed"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Input of every workload: labeled rows ready for [Seq_io.write_labeled]
   and the planted class of each row ([-1] = outlier). *)
type input = { alphabet : Alphabet.t; rows : (string * Sequence.t) array; truth : int array }

let label_of_class c = if c < 0 then "outlier" else Printf.sprintf "c%d" c

let class_of_label l =
  let bad () = failwith (Printf.sprintf "unexpected label %S" l) in
  if l = "outlier" then -1
  else if String.length l > 1 && l.[0] = 'c' then
    match int_of_string_opt (String.sub l 1 (String.length l - 1)) with
    | Some c -> c
    | None -> bad ()
  else bad ()

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* The planted variable-order-model database of synth-batch and its
   stream: the bench's [synth_workload] shape at |Σ| = 26, k = 8. *)
let synth_params ~seed ~n =
  {
    Workload.n_sequences = n;
    avg_length = 200;
    alphabet_size = 26;
    n_clusters = 8;
    outlier_fraction = 0.05;
    contexts_per_cluster = 120;
    concentration = 0.15;
    max_context_len = 4;
    base_concentration = 1.5;
    core_symbols = None;
    shared_base = false;
    seed;
  }

(* Sizes keep one clustering near a second, so a run of the benchmark
   covers thirty draws (see README.md). The protein draws keep the
   default ~20 members per family at half the families. *)
let synth_sequences = 300
let stream_sequences = 1500
let protein_sequences = 300
let protein_families = 15

let of_db db truth =
  let alphabet = Seq_database.alphabet db in
  let rows = Array.mapi (fun i c -> (label_of_class c, Seq_database.get db i)) truth in
  { alphabet; rows; truth = Array.copy truth }

let synth ~seed ~n =
  let w = Workload.generate (synth_params ~seed ~n) in
  of_db w.db w.labels

let generate kind ~seed ~scale =
  match kind with
  | Synth_batch -> synth ~seed ~n:(scaled scale synth_sequences)
  | Protein_observed ->
      let p =
        {
          Protein_sim.default_params with
          total_sequences = scaled scale protein_sequences;
          n_families = max 2 (scaled scale protein_families);
          seed;
        }
      in
      let w = Protein_sim.generate p in
      of_db w.db w.labels

(* The bench's [synth_config] and [protein_config]. *)
let synth_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = 1.2;
    max_iterations = 30;
    seed = 3;
  }

let protein_config =
  {
    Cluseq.default_config with
    k_init = 10;
    significance = 5;
    min_residual = Some 5;
    t_init = 1.0005;
    seed = 1;
  }

let config = function Synth_batch -> synth_config | Protein_observed -> protein_config

(* The stream that synth-batch's traced run feeds to [Online]: 1500
   sequences from the same generator, in generated order. The feed-time
   threshold is fixed at 1e5 over thresholds scaled to ~64 members per
   cluster; the default 1.2 joins everything into the first mined
   cluster. *)
let stream ~seed ~scale = synth ~seed ~n:(scaled scale stream_sequences)

let stream_config =
  { (Cluseq.scaled_config ~base:synth_config ~expected_cluster_size:64 ()) with t_init = 1e5 }
