(* Tests of the benchmark's own code: the percentile and quartile rules,
   span self-time arithmetic, metric names against BENCHMARK.json, input
   determinism, and a tiny-size smoke run of every workload in both
   passes. *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-12

(* --- percentiles and quartiles ---------------------------------------- *)

let test_tail_boundary () =
  let samples n = Array.init n float_of_int in
  (* p99 keeps ten samples beyond it from 1000 samples on, not at 999. *)
  check "1000 samples leave 10 beyond p99" (Quant.beyond ~n:1000 990 = 10);
  check "999 samples leave 9 beyond p99" (Quant.beyond ~n:999 990 = 9);
  (match Quant.tail (samples 1000) with
  | Some t -> check "tail of 1000 is p99" (t.label = "p99" && t.beyond = 10 && t.value = 989.0)
  | None -> check "tail of 1000 exists" false);
  (match Quant.tail (samples 999) with
  | Some t -> check "tail of 999 falls back to p95" (t.label = "p95" && t.beyond >= 10)
  | None -> check "tail of 999 exists" false);
  (match Quant.tail (samples 10_000) with
  | Some t -> check "tail of 10000 is p99.9" (t.label = "p99.9" && t.beyond = 10)
  | None -> check "tail of 10000 exists" false);
  check "20 samples: median has 10 beyond"
    (match Quant.tail (samples 20) with Some t -> t.label = "p50" | None -> false);
  check "19 samples: no percentile qualifies" (Quant.tail (samples 19) = None)

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Quant.quartiles (Array.of_list xs) in
  let eq name (a, b) (x, y) = check name (close a x && close b y) in
  eq "quartiles 1..10" (q [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]) (2.75, 8.25);
  eq "quartiles of two" (q [ 3.; 1. ]) (0.5, 3.5);
  eq "quartiles of five" (q [ 5.; 1.; 4.; 2.; 3. ]) (1.5, 4.5);
  eq "quartiles of seven" (q [ 0.5; 0.25; 1.5; 2.0; 8.0; 3.0; 7.0 ]) (0.5, 7.0);
  check "median even" (Quant.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median odd" (Quant.median [| 9.; 1.; 5. |] = 5.0)

(* --- span self time ----------------------------------------------------- *)

let span id parent a b =
  {
    Spans.id;
    name = "s";
    workload = "w";
    parent;
    start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b;
    tag = "";
  }

let self all (s : Spans.span) = Int64.to_int (Hashtbl.find (Spans.self_times all) s.id)

let test_self_time () =
  let root = span 0 (-1) 0 100 in
  (* Two overlapping children cover [10, 50): 40, not 20 + 30. *)
  let c1 = span 1 0 10 30 and c2 = span 2 0 20 50 in
  (* A grandchild is covered by its parent, not charged to the root. *)
  let g = span 3 1 12 28 in
  (* A child running past its parent's end is clipped to it. *)
  let c3 = span 4 0 90 120 in
  let all = [ root; c1; c2; g; c3 ] in
  check "root self = 100 - |[10,50) u [90,100)|" (self all root = 50);
  check "child self excludes grandchild" (self all c1 = 4);
  check "leaf self = duration" (self all c2 = 30);
  check "identical children count once" (self [ root; span 1 0 0 60; span 2 0 0 60 ] root = 40);
  check "nested children inside one child"
    (self [ root; span 1 0 0 100; span 2 0 10 20 ] root = 0);
  check "union of disjoint intervals"
    (Int64.to_int (Spans.covered ~lo:0L ~hi:100L [ (0L, 10L); (20L, 30L); (25L, 40L) ]) = 30)

(* --- metric names --------------------------------------------------------- *)

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Bench_json.parse s with Ok j -> j | Error e -> failwith e

let declared j section =
  match Bench_json.member section j with
  | Some (Bench_json.Arr items) ->
      List.map
        (fun it ->
          let str k = Option.bind (Bench_json.member k it) Bench_json.to_str in
          (str "name", str "unit", str "better"))
        items
  | _ -> []

let test_declarations () =
  let j = benchmark_json () in
  let mine ms =
    List.map
      (fun (m : Decl.metric) ->
        let better = match m.better with Decl.Lower -> "lower" | Higher -> "higher" in
        (Some m.name, Some m.unit_, Some better))
      ms
  in
  check "end_to_end matches BENCHMARK.json" (declared j "end_to_end" = mine Decl.end_to_end);
  check "per_layer matches BENCHMARK.json" (declared j "per_layer" = mine Decl.per_layer);
  List.iter
    (fun (m : Decl.metric) -> check ("valid name " ^ m.name) (Decl.valid_name m.name))
    Decl.all;
  check "names used once"
    (List.length (List.sort_uniq compare (List.map (fun (m : Decl.metric) -> m.name) Decl.all))
    = List.length Decl.all);
  let workloads =
    match Bench_json.member "workloads" j with
    | Some (Bench_json.Arr ws) ->
        List.filter_map (fun w -> Option.bind (Bench_json.member "name" w) Bench_json.to_str) ws
    | _ -> []
  in
  check "workloads match BENCHMARK.json" (workloads = List.map Workloads.name Workloads.all);
  check "rejects bad names"
    (not (List.exists Decl.valid_name [ "a b"; "_x"; ""; "x/y"; String.make 65 'a' ]))

(* --- inputs and smoke runs ------------------------------------------------ *)

let workdir = "perfbench-test-work"

let opts ?(seed = 1) ?(trace = false) kind =
  { Bench.kind; seed; seconds = 0.01; trace; scale = 0.1; workdir }

(* Runs [f] with stdout sent to a file, so smoke runs stay quiet. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let path = Filename.concat workdir "smoke.out" in
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let test_input_digest () =
  let digest seed =
    quietly (fun () ->
        Bench.input_digest (Bench.prepare (opts ~seed Workloads.Synth_batch) ~count:2))
  in
  check "same seed, same input digest" (digest 7 = digest 7);
  check "different seed, different input digest" (digest 7 <> digest 8)

let test_smoke () =
  List.iter
    (fun kind ->
      List.iter
        (fun trace ->
          let name = Printf.sprintf "smoke %s trace=%b" (Workloads.name kind) trace in
          let report, (t : Bench.tally), keep =
            quietly (fun () -> Bench.execute (opts ~trace kind) ~rev:"test")
          in
          let printed = Report.names report in
          List.iter (fun p -> Printf.printf "  %s: %s\n" name p) t.problems;
          check (name ^ ": checks pass") (t.failed = 0 && t.problems = [] && t.attempted > 0);
          check (name ^ ": printed names declared")
            (List.for_all (fun n -> Decl.find n <> None && Decl.valid_name n) printed);
          check (name ^ ": result names are the pass's declared ones")
            (List.for_all (fun n -> n = "feed_p99_ms" || List.mem n printed) keep))
        [ false; true ])
    Workloads.all

let () =
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  test_tail_boundary ();
  test_quartiles ();
  test_self_time ();
  test_declarations ();
  test_input_digest ();
  test_smoke ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
