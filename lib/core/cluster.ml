type t = {
  id : int;
  born : int;
  members : Bitset.t;
  (* The PST and its automaton: compiled at pass start (Cluseq
     compiles before each read-only fan-out), dropped whenever the tree
     mutates, and rebuilt mid-pass by [Scorer.score] once the tree-walk
     rescores since the mutation pay for a compile. *)
  scorer : Scorer.t;
  (* Previous reclustering pass's score column against this model —
     valid only while the tree is unchanged (same lifecycle as the
     automaton), in which case a fresh evaluation would be
     bit-identical. *)
  mutable scores : Similarity.result array option;
  (* The tree's divergence profile, built on first use by the drift
     panel; same lifecycle as the score column. *)
  mutable profile : Divergence.profile option;
}

let m_absorbs = Obs.Metrics.counter "cluster.absorbs"

let create ~id ?(born = 0) ~capacity cfg seed =
  let pst = Pst.create cfg in
  Pst.insert_sequence pst seed;
  {
    id;
    born;
    members = Bitset.create capacity;
    scorer = Scorer.create pst;
    scores = None;
    profile = None;
  }

let id t = t.id
let born t = t.born
let pst t = Scorer.pst t.scorer
let members t = t.members
let size t = Bitset.cardinal t.members
let mem t i = Bitset.mem t.members i
let add_member t i = Bitset.add t.members i
let clear_members t = Bitset.clear t.members

(* Journal a [cluster.froze] event for an automaton built since the
   last [compile] — here or quietly inside [similarity] — so events
   land where an eager compile at this call would put them, with the
   same payload: a quiet build saw the same tree, or it would have been
   dropped. *)
let compile t =
  Scorer.compile t.scorer;
  match Scorer.take_fresh t.scorer with
  | Some psa when Obs.Journal.is_enabled () ->
      Obs.Journal.emit "cluster.froze" (fun () ->
          [
            ("cluster", Bench_json.Num (float_of_int t.id));
            ("n_states", Bench_json.Num (float_of_int (Psa.n_states psa)));
            ("size", Bench_json.Num (float_of_int (Bitset.cardinal t.members)));
          ])
  | _ -> ()

let score_cache t = t.scores
let set_score_cache t col = t.scores <- Some col

let profile t =
  match t.profile with
  | Some pr -> pr
  | None ->
      let pr = Divergence.profile (Scorer.pst t.scorer) in
      t.profile <- Some pr;
      pr

let similarity t ~log_background s = Scorer.score t.scorer ~log_background s

let similarity_batch t ~log_background ~batch seqs =
  Scorer.score_batch t.scorer ~log_background ~batch seqs

let absorb t ~seq_id s (r : Similarity.result) =
  Obs.Metrics.incr m_absorbs;
  add_member t seq_id;
  if r.seg_lo >= 0 && r.seg_hi >= r.seg_lo then begin
    (* The tree changes (insertion, possibly pruning): the automaton is
       dropped, and scores go back to the tree walk until they pay for
       a recompile — bit-identical either way, so callers cannot tell
       which path ran. The score column and the divergence profile go
       stale with it. *)
    Scorer.insert_segment t.scorer s ~lo:r.seg_lo ~hi:r.seg_hi;
    t.scores <- None;
    t.profile <- None
  end
