type t = {
  pst : Pst.t;
  mutable compiled : Psa.t option;
  (* Built since the last [take_fresh] (and not dropped since). *)
  mutable fresh : bool;
  (* Symbols scored by the tree walk since the last mutation. *)
  mutable walked : int;
  (* Tree-walked symbols one compile costs, from the last compile. *)
  mutable price : int;
}

(* A compile fills about two table cells in the time the tree walk
   scores one symbol (DESIGN.md §9). *)
let cells_per_walked_symbol = 2

let create pst = { pst; compiled = None; fresh = false; walked = 0; price = 0 }
let pst t = t.pst
let compiled t = t.compiled

let build t =
  let psa = Psa.compile t.pst in
  t.compiled <- Some psa;
  t.fresh <- true;
  t.price <- Psa.n_states psa * Psa.alphabet_size psa / cells_per_walked_symbol;
  psa

let compile t = if Option.is_none t.compiled && Psa.enabled () then ignore (build t)

let insert_segment t s ~lo ~hi =
  Pst.insert_segment t.pst s ~lo ~hi;
  t.compiled <- None;
  t.fresh <- false;
  t.walked <- 0

let score t ~log_background s =
  match t.compiled with
  | Some psa -> Similarity.score_psa psa ~log_background s
  | None when t.walked >= t.price && Psa.enabled () ->
      Similarity.score_psa (build t) ~log_background s
  | None ->
      t.walked <- t.walked + Array.length s;
      Similarity.score t.pst ~log_background s

let score_batch t ~log_background ~batch seqs =
  match t.compiled with
  | Some psa -> Similarity.score_batch psa ~log_background ~batch seqs
  | None -> Array.map (Similarity.score t.pst ~log_background) seqs

let take_fresh t =
  if t.fresh then begin
    t.fresh <- false;
    t.compiled
  end
  else None
