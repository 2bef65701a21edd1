(* In-memory spans recorded by the benchmark around its calls into the
   program's public functions (the traced run only). Each span has a
   name, start, end, parent and workload id, plus an optional outcome
   tag (e.g. how an [Online.feed] ended). Spans stay in memory and are
   written out as JSON lines when the run ends.

   A span's self time is its duration minus the part of its interval
   that its child spans cover; children may overlap each other, so the
   covered part is the length of the union of their (clipped)
   intervals, not the sum of their durations. *)

type span = {
  id : int;
  name : string;
  workload : string;
  parent : int;  (** [-1] for a root span. *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable tag : string;
}

type t = {
  workload : string;
  mutable spans : span list;  (** Newest first. *)
  mutable stack : span list;  (** Open spans, innermost first. *)
  mutable next : int;
}

let create ~workload = { workload; spans = []; stack = []; next = 0 }
let spans t = List.rev t.spans

(* [record t name ~tag f] runs [f ()] inside a span; [tag] names the
   outcome from the result. A raising call closes its span tagged
   ["raised"] and re-raises. *)
let record t ?(tag = fun _ -> "") name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    {
      id = t.next;
      name;
      workload = t.workload;
      parent;
      start_ns = Timer.now_ns ();
      stop_ns = 0L;
      tag = "";
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  let close tag =
    s.stop_ns <- Timer.now_ns ();
    s.tag <- tag;
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
      close (tag v);
      v
  | exception e ->
      close "raised";
      raise e

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Length of the union of [intervals] after clipping each to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time of every span of [all], by id. *)
let self_times all =
  let children = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.add children c.parent (c.start_ns, c.stop_ns)) all;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let cover = covered ~lo:s.start_ns ~hi:s.stop_ns (Hashtbl.find_all children s.id) in
      Hashtbl.replace self s.id (Int64.sub (duration_ns s) cover))
    all;
  self

(* Per (name, tag): span count, total duration and total self time, in
   first-appearance order. *)
let summary t =
  let all = spans t in
  let self = self_times all in
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let key = (s.name, s.tag) in
      let n, total, self_total =
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            order := key :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace tbl key
        (n + 1, Int64.add total (duration_ns s), Int64.add self_total (Hashtbl.find self s.id)))
    all;
  List.rev_map (fun key -> (key, Hashtbl.find tbl key)) !order

(* Names and tags are the benchmark's own ASCII literals. *)
let write t path =
  let all = spans t in
  let self = self_times all in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"workload\":%S,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\
             \"self_ns\":%Ld,\"tag\":%S}\n"
            s.id s.name s.workload s.parent s.start_ns s.stop_ns (Hashtbl.find self s.id) s.tag)
        all)
