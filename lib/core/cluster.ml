type t = {
  id : int;
  born : int;
  pst : Pst.t;
  members : Bitset.t;
  (* One compiled automaton per frozen tree: built at pass start
     (Cluseq compiles before each read-only fan-out), dropped whenever
     the tree mutates. [None] means "score via the tree walk". *)
  mutable compiled : Psa.t option;
  (* Previous reclustering pass's score column against this model —
     valid only while the tree is unchanged (same lifecycle as
     [compiled]), in which case a fresh evaluation would be
     bit-identical. *)
  mutable scores : Similarity.result array option;
}

let m_absorbs = Obs.Metrics.counter "cluster.absorbs"

let create ~id ?(born = 0) ~capacity cfg seed =
  let pst = Pst.create cfg in
  Pst.insert_sequence pst seed;
  {
    id;
    born;
    pst;
    members = Bitset.create capacity;
    compiled = None;
    scores = None;
  }

let id t = t.id
let born t = t.born
let pst t = t.pst
let members t = t.members
let size t = Bitset.cardinal t.members
let mem t i = Bitset.mem t.members i
let add_member t i = Bitset.add t.members i
let clear_members t = Bitset.clear t.members

let compile t =
  match t.compiled with
  | Some _ -> ()
  | None ->
      if Psa.enabled () then begin
        let psa = Psa.compile t.pst in
        t.compiled <- Some psa;
        if Obs.Journal.is_enabled () then
          Obs.Journal.emit "cluster.froze" (fun () ->
              [
                ("cluster", Bench_json.Num (float_of_int t.id));
                ("n_states", Bench_json.Num (float_of_int (Psa.n_states psa)));
                ("size", Bench_json.Num (float_of_int (Bitset.cardinal t.members)));
              ])
      end

let score_cache t = t.scores
let set_score_cache t col = t.scores <- Some col

let similarity t ~log_background s =
  match t.compiled with
  | Some psa -> Similarity.score_psa psa ~log_background s
  | None -> Similarity.score t.pst ~log_background s

let similarity_batch t ~log_background ~batch seqs =
  match t.compiled with
  | Some psa -> Similarity.score_batch psa ~log_background ~batch seqs
  | None -> Array.map (Similarity.score t.pst ~log_background) seqs

let absorb t ~seq_id s (r : Similarity.result) =
  Obs.Metrics.incr m_absorbs;
  add_member t seq_id;
  if r.seg_lo >= 0 && r.seg_hi >= r.seg_lo then begin
    Pst.insert_segment t.pst s ~lo:r.seg_lo ~hi:r.seg_hi;
    (* The tree changed (insertion, possibly pruning): the automaton is
       stale. Scores fall back to the tree walk until the next compile —
       which is bit-identical, so callers cannot tell which path ran. *)
    t.compiled <- None;
    t.scores <- None
  end
