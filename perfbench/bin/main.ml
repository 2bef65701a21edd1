(* The benchmark command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--rev REV] [--workdir DIR]

   prints the metrics as a table and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}. Exits 1 when any output
   check failed, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (synth-batch|protein-observed) --seed N --seconds S \
     --trace 0|1 [--rev REV] [--workdir DIR]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rev = ref "unknown" and workdir = ref ".perfbench-work" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Perfbench.Workloads.of_name v;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds :=
          Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--rev" :: v :: rest ->
        rev := v;
        parse rest
    | "--workdir" :: v :: rest ->
        workdir := v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some kind, Some seed, Some seconds, Some trace ->
      if not (Sys.file_exists !workdir) then Sys.mkdir !workdir 0o755;
      let opts = { Perfbench.Bench.kind; seed; seconds; trace; scale = 1.0; workdir = !workdir } in
      if not (Perfbench.Bench.run opts ~rev:!rev) then exit 1
  | _ -> usage ()
