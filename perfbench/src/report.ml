(* Collects the run's metrics, prints them as a human-readable table and
   ends with the one-line JSON result. A metric carries its per-run
   samples when it is a median across runs, and a note stating the base
   of a ratio or the sample count behind a percentile. *)

type entry = { decl : Decl.metric; value : float; samples : float array; note : string }
type t = { mutable entries : entry list }

let create () = { entries = [] }

let add t ?(samples = [||]) ?(note = "") name value =
  match Decl.find name with
  | None -> invalid_arg (Printf.sprintf "Report.add: undeclared metric %S" name)
  | Some decl ->
      if not (Decl.valid_name name) then
        invalid_arg (Printf.sprintf "Report.add: bad name %S" name);
      if not (Float.is_finite value) then
        failwith (Printf.sprintf "metric %s is not finite (%g)" name value);
      t.entries <- { decl; value; samples; note } :: t.entries

(* [add_median t name samples] reports the median of [samples]. *)
let add_median t ?note name samples = add t ~samples ?note name (Quant.median samples)
let entries t = List.rev t.entries
let names t = List.map (fun e -> e.decl.name) (entries t)

let print_table t =
  List.iter
    (fun e ->
      let spread =
        if Array.length e.samples = 0 then ""
        else
          let q1, q3 = Quant.quartiles e.samples in
          Printf.sprintf "  n=%d median=%.6g q1=%.6g q3=%.6g" (Array.length e.samples)
            (Quant.median e.samples) q1 q3
      in
      Printf.printf "  %-32s %14.6g %-8s%s%s\n" e.decl.name e.value e.decl.unit_ spread
        (if e.note = "" then "" else "  (" ^ e.note ^ ")"))
    (entries t)

let json_number v = Printf.sprintf "%.17g" v

(* The result line: [metrics] holds exactly the entries whose names are
   in [keep]. *)
let result_line t ~keep ~correct ~attempted ~failed =
  let metrics =
    List.filter (fun e -> List.mem e.decl.name keep) (entries t)
    |> List.map (fun e ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" e.decl.name
             (json_number e.value) e.decl.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " metrics)
