(* Order statistics for the benchmark's reports.

   Two rules matter and are pinned by tests:
   - quartiles across runs follow Python's
     [statistics.quantiles(values, n=4)] (the default "exclusive"
     method), so the spread the benchmark prints is the spread an
     external checker computes from the same values;
   - a latency tail is reported at the highest percentile of a fixed
     ladder that still has at least ten samples beyond it (nearest-rank),
     so a p99 is never quoted from fewer than 1000 samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quant.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile, as [statistics.quantiles(xs, n=4)]. One
   sample is its own quartiles (Python refuses fewer than two). *)
let quartiles xs =
  let ld = Array.length xs in
  if ld = 0 then invalid_arg "Quant.quartiles: no samples";
  if ld = 1 then (xs.(0), xs.(0))
  else
    let a = sorted xs in
    let m = ld + 1 and n = 4 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      let w x = float_of_int x in
      ((a.(j - 1) *. w (n - delta)) +. (a.(j) *. w delta)) /. w n
    in
    (cut 1, cut 3)

(* Percentiles in tenths of a percent, highest first. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let label_of_permille p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)

(* Nearest-rank: the 1-based rank of percentile [p] (per mille) among [n]
   samples is ceil(p·n/1000); the samples beyond it are n − rank. *)
let rank ~n p = max 1 ((p * n + 999) / 1000)
let beyond ~n p = n - rank ~n p

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quant.percentile: no samples";
  (sorted xs).(rank ~n p - 1)

type tail = { label : string; permille : int; value : float; samples : int; beyond : int }

(* The highest ladder percentile with at least ten samples beyond it;
   [None] when even the median has fewer than ten beyond (n < 20). *)
let tail xs =
  let n = Array.length xs in
  List.find_opt (fun p -> beyond ~n p >= 10) ladder
  |> Option.map (fun p ->
         { label = label_of_permille p; permille = p; value = percentile xs p; samples = n;
           beyond = beyond ~n p })
