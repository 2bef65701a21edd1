(* Process-global observability: a metrics registry (counters, gauges,
   fixed-bucket histograms), span-based tracing on the monotonic clock,
   and exporters (human summary, JSON, Prometheus text format).

   Counters and histograms are atomic: the Par worker domains score
   sequences through instrumented read paths (Similarity.score,
   Pst.log_prob) and any domain owning a pool may observe latencies, so
   neither increments nor bucket updates may race. Gauges, tracing, and
   registration remain main-domain mutable state — the serial-mutate
   side of the pipeline is the only writer. Instrumented code pays one
   [bool ref] dereference per event while disabled, so leaving call
   sites permanently instrumented is free.

   The flight recorder ([Recorder]) extends visibility to the worker
   domains themselves: each domain owns a fixed-capacity event ring
   (begin/end/instant, interned name, monotonic timestamp) written
   without locks; the main domain merges all rings at export time. The
   [Runtime_bridge] interleaves GC and domain-lifecycle events from the
   OCaml runtime into the same timeline, and [Export.to_chrome_trace]
   renders everything as Chrome trace-format JSON for Perfetto. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  let enabled = ref false
  let enable () = enabled := true
  let disable () = enabled := false
  let is_enabled () = !enabled

  type counter = { c_name : string; c_value : int Atomic.t }
  type gauge = { g_name : string; mutable g_value : float }

  (* Histograms are observable from any domain (the pool submitter in
     [Par.run_job] may not be the main domain in tests): bucket counts
     and the total count are atomic increments, and the float sum is a
     CAS retry loop. Readers may see a momentarily torn (sum, count)
     pair mid-observation; exporters only run after parallel regions
     complete, so published snapshots are consistent. *)
  type histogram = {
    h_name : string;
    bounds : float array; (* strictly increasing bucket upper bounds *)
    counts : int Atomic.t array; (* length bounds + 1; last is the +Inf bucket *)
    h_sum : float Atomic.t;
    h_count : int Atomic.t;
  }

  type entry = Counter of counter | Gauge of gauge | Histogram of histogram

  let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

  let kind_mismatch name =
    invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered with a different kind" name)

  let counter name =
    match Hashtbl.find_opt registry name with
    | Some (Counter c) -> c
    | Some _ -> kind_mismatch name
    | None ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        Hashtbl.add registry name (Counter c);
        c

  let incr ?(by = 1) c = if !enabled then ignore (Atomic.fetch_and_add c.c_value by)
  let counter_value c = Atomic.get c.c_value
  let counter_name c = c.c_name

  let gauge name =
    match Hashtbl.find_opt registry name with
    | Some (Gauge g) -> g
    | Some _ -> kind_mismatch name
    | None ->
        let g = { g_name = name; g_value = 0.0 } in
        Hashtbl.add registry name (Gauge g);
        g

  let set g v = if !enabled then g.g_value <- v
  let gauge_value g = g.g_value
  let gauge_name g = g.g_name

  (* Log-ish spacing from 1µs to 1min: latency histograms over the whole
     range the pipeline produces, from single similarity scans to full
     clustering phases. *)
  let default_time_buckets =
    [| 1e-6; 1e-5; 1e-4; 1e-3; 5e-3; 1e-2; 5e-2; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

  let histogram ?(buckets = default_time_buckets) name =
    match Hashtbl.find_opt registry name with
    | Some (Histogram h) -> h
    | Some _ -> kind_mismatch name
    | None ->
        let n = Array.length buckets in
        if n = 0 then invalid_arg "Obs.Metrics.histogram: empty buckets";
        for i = 1 to n - 1 do
          if buckets.(i) <= buckets.(i - 1) then
            invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing"
        done;
        let h =
          { h_name = name; bounds = Array.copy buckets;
            counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0; h_count = Atomic.make 0 }
        in
        Hashtbl.add registry name (Histogram h);
        h

  let rec atomic_add_float a v =
    let old = Atomic.get a in
    if not (Atomic.compare_and_set a old (old +. v)) then atomic_add_float a v

  let observe h v =
    if !enabled then begin
      let n = Array.length h.bounds in
      let i = ref 0 in
      while !i < n && v > h.bounds.(!i) do
        i := !i + 1
      done;
      ignore (Atomic.fetch_and_add h.counts.(!i) 1);
      atomic_add_float h.h_sum v;
      ignore (Atomic.fetch_and_add h.h_count 1)
    end

  let histogram_count h = Atomic.get h.h_count
  let histogram_sum h = Atomic.get h.h_sum
  let histogram_name h = h.h_name

  let bucket_counts h =
    let n = Array.length h.bounds in
    Array.init (n + 1) (fun i ->
        ((if i = n then infinity else h.bounds.(i)), Atomic.get h.counts.(i)))

  (* Quantile estimate from the bucket histogram: find the bucket holding
     the rank-q observation and interpolate linearly inside it (lower
     edge 0 for the first bucket). The +Inf bucket has no upper edge, so
     a rank landing there reports the last finite bound — a documented
     floor, not an extrapolation. *)
  let quantile h q =
    if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
      invalid_arg "Obs.Metrics.quantile: q must be in [0, 1]";
    let total = histogram_count h in
    if total = 0 then Float.nan
    else begin
      let n = Array.length h.bounds in
      let rank = q *. float_of_int total in
      let cum = ref 0.0 and i = ref 0 and res = ref h.bounds.(n - 1) and found = ref false in
      while (not !found) && !i <= n do
        let c = float_of_int (Atomic.get h.counts.(!i)) in
        if (!cum +. c >= rank && c > 0.0) || !i = n then begin
          if !i = n then res := h.bounds.(n - 1)
          else begin
            let lo = if !i = 0 then 0.0 else h.bounds.(!i - 1) in
            let hi = h.bounds.(!i) in
            let frac = if c = 0.0 then 1.0 else (rank -. !cum) /. c in
            res := lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac))
          end;
          found := true
        end
        else begin
          cum := !cum +. c;
          i := !i + 1
        end
      done;
      !res
    end

  let reset () =
    Hashtbl.iter
      (fun _ e ->
        match e with
        | Counter c -> Atomic.set c.c_value 0
        | Gauge g -> g.g_value <- 0.0
        | Histogram h ->
            Array.iter (fun a -> Atomic.set a 0) h.counts;
            Atomic.set h.h_sum 0.0;
            Atomic.set h.h_count 0)
      registry

  (* Registered entries sorted by name, for the exporters. *)
  let entries () =
    Hashtbl.fold (fun name e acc -> (name, e) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  let enabled = ref false
  let enable () = enabled := true
  let disable () = enabled := false
  let is_enabled () = !enabled

  type span = {
    span_name : string;
    start_ns : int64;
    mutable stop_ns : int64; (* 0 while the span is open *)
    mutable rev_children : span list;
  }

  let roots_rev : span list ref = ref []
  let stack : span list ref = ref []
  let start_hooks : (span -> unit) list ref = ref []
  let stop_hooks : (span -> unit) list ref = ref []

  let on_start f = start_hooks := !start_hooks @ [ f ]
  let on_stop f = stop_hooks := !stop_hooks @ [ f ]
  let clear_hooks () =
    start_hooks := [];
    stop_hooks := []

  let name sp = sp.span_name
  let children sp = List.rev sp.rev_children
  let start_ns sp = sp.start_ns

  let duration_ns sp =
    Int64.sub (if sp.stop_ns = 0L then Timer.now_ns () else sp.stop_ns) sp.start_ns

  let duration_s sp = Int64.to_float (duration_ns sp) /. 1e9

  let with_span name f =
    (* Span state is a pair of global refs, so only the main domain may
       record spans: a worker-domain span (e.g. inside a shard task)
       degrades to a plain call instead of corrupting the stack. *)
    if (not !enabled) || not (Domain.is_main_domain ()) then f ()
    else begin
      let sp = { span_name = name; start_ns = Timer.now_ns (); stop_ns = 0L; rev_children = [] } in
      (match !stack with
      | parent :: _ -> parent.rev_children <- sp :: parent.rev_children
      | [] -> roots_rev := sp :: !roots_rev);
      stack := sp :: !stack;
      List.iter (fun h -> h sp) !start_hooks;
      Fun.protect
        ~finally:(fun () ->
          sp.stop_ns <- Timer.now_ns ();
          (match !stack with s :: rest when s == sp -> stack := rest | _ -> ());
          List.iter (fun h -> h sp) !stop_hooks)
        f
    end

  let roots () = List.rev !roots_rev

  let reset () =
    roots_rev := [];
    stack := []

  let pp ppf () =
    let rec go indent sp =
      Format.fprintf ppf "%s%s  %.3f ms@\n" (String.make indent ' ') sp.span_name
        (duration_s sp *. 1e3);
      List.iter (go (indent + 2)) (children sp)
    in
    List.iter (go 0) (roots ())
end

(* ------------------------------------------------------------------ *)
(* Flight recorder: per-domain event rings                             *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  (* Read cross-domain without synchronization, like [Metrics.enabled]:
     enable/disable happen on the main domain outside parallel regions,
     so workers observe a stable value while jobs run. *)
  let enabled = ref false
  let enable () = enabled := true
  let disable () = enabled := false
  let is_enabled () = !enabled

  (* --- interned event names --- *)

  (* Events store an integer name id so the hot path writes four ints
     and nothing else. Interning is find-or-create under a mutex — call
     sites intern once at module initialization, never per event. *)
  type name = int

  let intern_mutex = Mutex.create ()
  let name_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_arr : string array ref = ref (Array.make 8 "")
  let n_names = ref 0

  let intern s =
    Mutex.lock intern_mutex;
    let id =
      match Hashtbl.find_opt name_tbl s with
      | Some id -> id
      | None ->
          let id = !n_names in
          if id = Array.length !name_arr then begin
            let bigger = Array.make (2 * id) "" in
            Array.blit !name_arr 0 bigger 0 id;
            name_arr := bigger
          end;
          !name_arr.(id) <- s;
          Hashtbl.add name_tbl s id;
          n_names := id + 1;
          id
    in
    Mutex.unlock intern_mutex;
    id

  let name_string id = !name_arr.(id)

  (* --- rings --- *)

  (* Fixed-capacity ring per domain, created lazily via DLS on the
     domain's first event. Only the owning domain writes; the main
     domain reads after parallel regions complete (the pool joins every
     chunk before a job returns, so reads never race live writes).
     Capacity is a power of two so the slot index is a mask. Timestamps
     are [Timer.now_ns] truncated to int — CLOCK_MONOTONIC ns since
     boot fits in 62 bits for ~146 years, and an int store allocates
     nothing, keeping the hot path allocation-free. *)
  type ring = {
    r_domain : int;
    r_cap : int;
    r_ts : int array;
    r_kind : int array; (* 0 begin, 1 end, 2 instant *)
    r_name : int array;
    r_arg : int array;
    mutable r_next : int; (* total events ever written; slot = next land (cap-1) *)
  }

  let default_capacity = 1 lsl 16

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

  let capacity = ref default_capacity

  let set_capacity n =
    if n < 16 then invalid_arg "Obs.Recorder.set_capacity: capacity must be >= 16";
    capacity := pow2_at_least n 16

  let rings : ring list ref = ref []
  let rings_mutex = Mutex.create ()

  let make_ring () =
    let cap = !capacity in
    let r =
      {
        r_domain = (Domain.self () :> int);
        r_cap = cap;
        r_ts = Array.make cap 0;
        r_kind = Array.make cap 0;
        r_name = Array.make cap 0;
        r_arg = Array.make cap 0;
        r_next = 0;
      }
    in
    Mutex.lock rings_mutex;
    rings := r :: !rings;
    Mutex.unlock rings_mutex;
    r

  let dls_key : ring Domain.DLS.key = Domain.DLS.new_key make_ring

  let emit kind name arg =
    let r = Domain.DLS.get dls_key in
    let i = r.r_next land (r.r_cap - 1) in
    r.r_ts.(i) <- Int64.to_int (Timer.now_ns ());
    r.r_kind.(i) <- kind;
    r.r_name.(i) <- name;
    r.r_arg.(i) <- arg;
    r.r_next <- r.r_next + 1

  let begin_ ?(arg = 0) n = if !enabled then emit 0 n arg
  let end_ n = if !enabled then emit 1 n 0
  let instant ?(arg = 0) n = if !enabled then emit 2 n arg

  let with_event ?arg n f =
    if not !enabled then f ()
    else begin
      begin_ ?arg n;
      Fun.protect ~finally:(fun () -> end_ n) f
    end

  (* --- draining (main domain, outside parallel regions) --- *)

  type kind = Begin | End | Instant

  type event = { domain : int; ts_ns : int64; kind : kind; ev_name : string; arg : int }

  let snapshot_rings () =
    Mutex.lock rings_mutex;
    let rs = !rings in
    Mutex.unlock rings_mutex;
    rs

  let dropped () =
    List.fold_left (fun acc r -> acc + max 0 (r.r_next - r.r_cap)) 0 (snapshot_rings ())

  let events () =
    let of_ring r =
      let live = min r.r_next r.r_cap in
      let first = r.r_next - live in
      List.init live (fun k ->
          let i = (first + k) land (r.r_cap - 1) in
          {
            domain = r.r_domain;
            ts_ns = Int64.of_int r.r_ts.(i);
            kind = (match r.r_kind.(i) with 0 -> Begin | 1 -> End | _ -> Instant);
            ev_name = name_string r.r_name.(i);
            arg = r.r_arg.(i);
          })
    in
    snapshot_rings ()
    |> List.concat_map of_ring
    |> List.stable_sort (fun a b ->
           let c = Int64.compare a.ts_ns b.ts_ns in
           if c <> 0 then c else compare a.domain b.domain)

  let reset () = List.iter (fun r -> r.r_next <- 0) (snapshot_rings ())
end

(* ------------------------------------------------------------------ *)
(* Decision-provenance journal                                         *)
(* ------------------------------------------------------------------ *)

module Journal = struct
  (* Append-only JSONL writer for model decisions. Single-writer by
     contract: the pipeline only emits from its serial main-domain
     sections, so plain refs suffice (same discipline as the auditor
     hook in Cluseq). Records are buffered and flushed in batches; a
     failing flush drops the whole batch and counts it, mirroring the
     Recorder's wrap accounting — observability must never abort the
     run it observes. *)

  type state = {
    oc : out_channel;
    path : string;
    buf : Buffer.t;
    mutable buffered : int;  (* records currently sitting in [buf] *)
    mutable seq : int;  (* next record ordinal in this file *)
  }

  let flush_threshold = 64 * 1024
  let enabled = ref false
  let state : state option ref = ref None

  (* Survive [close] so CLI/bench exit paths can still report totals. *)
  let n_written = ref 0
  let n_dropped = ref 0

  let is_enabled () = !enabled

  let flush_state st =
    if st.buffered > 0 then begin
      (try
         output_string st.oc (Buffer.contents st.buf);
         Stdlib.flush st.oc;
         n_written := !n_written + st.buffered
       with Sys_error _ -> n_dropped := !n_dropped + st.buffered);
      Buffer.clear st.buf;
      st.buffered <- 0
    end

  let close () =
    match !state with
    | None -> ()
    | Some st ->
        enabled := false;
        state := None;
        flush_state st;
        (try close_out st.oc with Sys_error _ -> ())

  let open_file path =
    close ();
    let oc = open_out path in
    state := Some { oc; path; buf = Buffer.create (flush_threshold + 4096); buffered = 0; seq = 0 };
    enabled := true

  let current_path () = Option.map (fun st -> st.path) !state

  let emit event fields =
    if !enabled then
      match !state with
      | None -> ()
      | Some st ->
          (* ts_ns as a JSON number: exact below 2^53 ns of uptime
             (~104 days), which covers any run we journal. *)
          (* Envelope keys are chosen not to collide with event fields
             ("rec", not "seq" — events about sequences carry a "seq"
             field of their own). *)
          let record =
            Bench_json.Obj
              (("rec", Bench_json.Num (float_of_int st.seq))
              :: ("ts_ns", Bench_json.Num (Int64.to_float (Timer.now_ns ())))
              :: ("event", Bench_json.Str event)
              :: fields ())
          in
          st.seq <- st.seq + 1;
          Buffer.add_string st.buf (Bench_json.to_compact_string record);
          Buffer.add_char st.buf '\n';
          st.buffered <- st.buffered + 1;
          if Buffer.length st.buf >= flush_threshold then flush_state st

  let flush () = match !state with None -> () | Some st -> flush_state st

  (* The journal is single-writer by contract, so a parallel fan-out
     (shard orchestration) suspends emission around the parallel region:
     [enabled] is cleared on the main domain before workers start (the
     pool's mutex publishes the write), workers see emission disabled,
     and the orchestrator journals its own events after restore. *)
  let with_suspended f =
    let was = !enabled in
    enabled := false;
    Fun.protect ~finally:(fun () -> enabled := was) f

  let events_written () = !n_written
  let dropped () = !n_dropped

  (* ---- reading journals back ---- *)

  type entry = {
    j_seq : int;
    j_ts_ns : int64;
    j_event : string;
    j_fields : (string * Bench_json.t) list;
  }

  let entry_of_json json =
    match
      ( Option.bind (Bench_json.member "rec" json) Bench_json.to_int,
        Option.bind (Bench_json.member "ts_ns" json) Bench_json.to_float,
        Option.bind (Bench_json.member "event" json) Bench_json.to_str )
    with
    | Some seq, Some ts, Some event ->
        let fields =
          List.filter
            (fun (k, _) -> k <> "rec" && k <> "ts_ns" && k <> "event")
            (Bench_json.obj_items json)
        in
        Some { j_seq = seq; j_ts_ns = Int64.of_float ts; j_event = event; j_fields = fields }
    | _ -> None

  let read_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | contents ->
        let lines = String.split_on_char '\n' contents in
        let rec go lineno acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest ->
              if String.trim line = "" then go (lineno + 1) acc rest
              else begin
                match Bench_json.parse line with
                | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
                | Ok json -> (
                    match entry_of_json json with
                    | None -> Error (Printf.sprintf "line %d: not a journal record" lineno)
                    | Some e -> go (lineno + 1) (e :: acc) rest)
              end
        in
        go 1 [] lines
end

(* ------------------------------------------------------------------ *)
(* Runtime_events bridge                                               *)
(* ------------------------------------------------------------------ *)

module Runtime_bridge = struct
  (* Subscribes to the stdlib [Runtime_events] ring buffers and buffers
     GC begin/end plus domain-lifecycle events for the trace exporter.
     All callbacks run on the domain calling [poll] (the main domain),
     so plain refs suffice. Timestamps come from the runtime's
     CLOCK_MONOTONIC — the same clock as [Timer.now_ns] — so they
     interleave directly with recorder events and spans. *)

  type kind = Begin | End | Instant

  type event = { rb_domain : int; rb_ts : int64; rb_name : string; rb_kind : kind }

  let events_rev : event list ref = ref []
  let n_events = ref 0
  let max_events = 200_000
  let n_dropped = ref 0
  let cursor : Runtime_events.cursor option ref = ref None

  let push e =
    if !n_events >= max_events then incr n_dropped
    else begin
      events_rev := e :: !events_rev;
      incr n_events
    end

  (* Top-level GC phases only: the runtime also emits fine-grained
     sub-phases (minor roots, ephe sweeps, barriers) that would swamp a
     clustering trace without adding signal at this zoom level. *)
  let interesting (p : Runtime_events.runtime_phase) =
    match p with
    | EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_GC_STW | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR ->
        true
    | _ -> false

  let runtime_ev kind ring_id ts phase =
    if interesting phase then
      push
        {
          rb_domain = ring_id;
          rb_ts = Runtime_events.Timestamp.to_int64 ts;
          rb_name = "gc." ^ Runtime_events.runtime_phase_name phase;
          rb_kind = kind;
        }

  let lifecycle_ev ring_id ts (l : Runtime_events.lifecycle) _arg =
    push
      {
        rb_domain = ring_id;
        rb_ts = Runtime_events.Timestamp.to_int64 ts;
        rb_name = "rt." ^ Runtime_events.lifecycle_name l;
        rb_kind = Instant;
      }

  let lost_ev ring_id n =
    n_dropped := !n_dropped + n;
    ignore ring_id

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create ~runtime_begin:(runtime_ev Begin)
         ~runtime_end:(runtime_ev End) ~lifecycle:lifecycle_ev ~lost_events:lost_ev ())

  let is_active () = !cursor <> None

  (* [Runtime_events.start] creates a <pid>.events ring file (in
     OCAML_RUNTIME_EVENTS_DIR or the cwd); a read-only cwd makes it
     raise, in which case the bridge degrades to inactive rather than
     failing the run. *)
  let start () =
    match !cursor with
    | Some _ -> true
    | None -> (
        try
          Runtime_events.start ();
          cursor := Some (Runtime_events.create_cursor None);
          true
        with _ -> false)

  let poll () =
    match !cursor with
    | None -> 0
    | Some c -> Runtime_events.read_poll c (Lazy.force callbacks) None

  let stop () =
    match !cursor with
    | None -> ()
    | Some c ->
        cursor := None;
        (try Runtime_events.free_cursor c with _ -> ());
        (try Runtime_events.pause () with _ -> ())

  let events () = List.rev !events_rev
  let dropped () = !n_dropped

  let reset () =
    events_rev := [];
    n_events := 0;
    n_dropped := 0
end

(* ------------------------------------------------------------------ *)
(* Resource profiling                                                  *)
(* ------------------------------------------------------------------ *)

module Resource = struct
  type gc_delta = {
    minor_words : float;
    promoted_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
    compactions : int;
    heap_words : int;
    top_heap_words : int;
  }

  let zero =
    {
      minor_words = 0.0;
      promoted_words = 0.0;
      major_words = 0.0;
      minor_collections = 0;
      major_collections = 0;
      compactions = 0;
      heap_words = 0;
      top_heap_words = 0;
    }

  let add a b =
    {
      minor_words = a.minor_words +. b.minor_words;
      promoted_words = a.promoted_words +. b.promoted_words;
      major_words = a.major_words +. b.major_words;
      minor_collections = a.minor_collections + b.minor_collections;
      major_collections = a.major_collections + b.major_collections;
      compactions = a.compactions + b.compactions;
      heap_words = a.heap_words + b.heap_words;
      top_heap_words = a.top_heap_words + b.top_heap_words;
    }

  let delta (before : Gc.stat) (after : Gc.stat) =
    {
      minor_words = after.Gc.minor_words -. before.Gc.minor_words;
      promoted_words = after.Gc.promoted_words -. before.Gc.promoted_words;
      major_words = after.Gc.major_words -. before.Gc.major_words;
      minor_collections = after.Gc.minor_collections - before.Gc.minor_collections;
      major_collections = after.Gc.major_collections - before.Gc.major_collections;
      compactions = after.Gc.compactions - before.Gc.compactions;
      heap_words = after.Gc.heap_words - before.Gc.heap_words;
      (* Clamped: on OCaml 5 [top_heap_words] is aggregated across
         domains and can fall when a domain terminates inside the span.
         The watermark only counts growth. *)
      top_heap_words = max 0 (after.Gc.top_heap_words - before.Gc.top_heap_words);
    }

  let measure f =
    let before = Gc.quick_stat () in
    let r = f () in
    (r, delta before (Gc.quick_stat ()))

  (* --- peak-heap watermark sampler --- *)

  let peak = ref 0
  let alarm : Gc.alarm option ref = ref None

  let sample () =
    let hw = (Gc.quick_stat ()).Gc.heap_words in
    if hw > !peak then peak := hw

  let start_sampler () =
    sample ();
    match !alarm with Some _ -> () | None -> alarm := Some (Gc.create_alarm sample)

  let stop_sampler () =
    match !alarm with
    | None -> ()
    | Some a ->
        Gc.delete_alarm a;
        alarm := None

  let reset_peak () =
    peak := 0;
    sample ()

  let peak_heap_words () =
    sample ();
    !peak

  (* --- gauge publication --- *)

  let set name v = Metrics.set (Metrics.gauge name) v

  let publish_values ~prefix ~minor_words ~promoted_words ~major_words ~minor_collections
      ~major_collections ~compactions ~heap_words ~top_heap_words =
    let p s = prefix ^ "." ^ s in
    set (p "minor_words") minor_words;
    set (p "promoted_words") promoted_words;
    set (p "major_words") major_words;
    set (p "minor_collections") (float_of_int minor_collections);
    set (p "major_collections") (float_of_int major_collections);
    set (p "compactions") (float_of_int compactions);
    set (p "heap_words") (float_of_int heap_words);
    set (p "top_heap_words") (float_of_int top_heap_words);
    set (p "peak_heap_words") (float_of_int (peak_heap_words ()))

  let publish ?(prefix = "gc") d =
    publish_values ~prefix ~minor_words:d.minor_words ~promoted_words:d.promoted_words
      ~major_words:d.major_words ~minor_collections:d.minor_collections
      ~major_collections:d.major_collections ~compactions:d.compactions
      ~heap_words:d.heap_words ~top_heap_words:d.top_heap_words

  let publish_current ?(prefix = "gc") () =
    let s = Gc.quick_stat () in
    publish_values ~prefix ~minor_words:s.Gc.minor_words ~promoted_words:s.Gc.promoted_words
      ~major_words:s.Gc.major_words ~minor_collections:s.Gc.minor_collections
      ~major_collections:s.Gc.major_collections ~compactions:s.Gc.compactions
      ~heap_words:s.Gc.heap_words ~top_heap_words:s.Gc.top_heap_words
end

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

module Export = struct
  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let json_float v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else "null" (* JSON has no Inf/NaN literal *)

  let to_json () =
    let b = Buffer.create 4096 in
    let comma first = if !first then first := false else Buffer.add_string b "," in
    Buffer.add_string b "{\n  \"counters\": {";
    let first = ref true in
    List.iter
      (fun (name, e) ->
        match e with
        | Metrics.Counter c ->
            comma first;
            Buffer.add_string b
              (Printf.sprintf "\n    \"%s\": %d" (json_escape name) (Metrics.counter_value c))
        | _ -> ())
      (Metrics.entries ());
    Buffer.add_string b "\n  },\n  \"gauges\": {";
    let first = ref true in
    List.iter
      (fun (name, e) ->
        match e with
        | Metrics.Gauge g ->
            comma first;
            Buffer.add_string b
              (Printf.sprintf "\n    \"%s\": %s" (json_escape name)
                 (json_float (Metrics.gauge_value g)))
        | _ -> ())
      (Metrics.entries ());
    Buffer.add_string b "\n  },\n  \"histograms\": {";
    let first = ref true in
    List.iter
      (fun (name, e) ->
        match e with
        | Metrics.Histogram h ->
            comma first;
            (* An empty histogram has no rank-q observation: omit the
               quantile keys rather than fabricate "null" estimates —
               consumers can then distinguish "no data" from "quantile
               happens to be unrepresentable". *)
            let quantiles =
              if Metrics.histogram_count h = 0 then ""
              else
                Printf.sprintf " \"p50\": %s, \"p95\": %s, \"p99\": %s,"
                  (json_float (Metrics.quantile h 0.50))
                  (json_float (Metrics.quantile h 0.95))
                  (json_float (Metrics.quantile h 0.99))
            in
            Buffer.add_string b
              (Printf.sprintf "\n    \"%s\": { \"count\": %d, \"sum\": %s,%s \"buckets\": ["
                 (json_escape name) (Metrics.histogram_count h)
                 (json_float (Metrics.histogram_sum h))
                 quantiles);
            let bfirst = ref true in
            Array.iter
              (fun (le, count) ->
                comma bfirst;
                let le_str =
                  if Float.is_finite le then json_float le else "\"+Inf\""
                in
                Buffer.add_string b (Printf.sprintf "{ \"le\": %s, \"count\": %d }" le_str count))
              (Metrics.bucket_counts h);
            Buffer.add_string b "] }"
        | _ -> ())
      (Metrics.entries ());
    Buffer.add_string b "\n  }";
    (match Trace.roots () with
    | [] -> ()
    | roots ->
        Buffer.add_string b ",\n  \"spans\": [";
        let rec emit_span first sp =
          comma first;
          Buffer.add_string b
            (Printf.sprintf "{ \"name\": \"%s\", \"duration_ns\": %Ld, \"children\": ["
               (json_escape (Trace.name sp)) (Trace.duration_ns sp));
          let cfirst = ref true in
          List.iter (emit_span cfirst) (Trace.children sp);
          Buffer.add_string b "] }"
        in
        let sfirst = ref true in
        List.iter (emit_span sfirst) roots;
        Buffer.add_string b "]");
    Buffer.add_string b "\n}\n";
    Buffer.contents b

  (* Chrome trace-format JSON (https://ui.perfetto.dev loads it): one
     merged timeline of the main-domain span tree (ph "X" complete
     events), every domain ring's begin/end/instant events, and the
     Runtime_bridge's GC/lifecycle events. All three sources timestamp
     with CLOCK_MONOTONIC ns; we rebase to the earliest event and emit
     microseconds, the format's unit. pid is always 0; tid is the OCaml
     domain id, so each domain renders as its own track. *)
  let to_chrome_trace () =
    let rec_events = Recorder.events () in
    let rt_events = Runtime_bridge.events () in
    let spans = Trace.roots () in
    let min64 a b = if Int64.compare a b <= 0 then a else b in
    let t0 =
      let acc = ref Int64.max_int in
      List.iter (fun sp -> acc := min64 !acc (Trace.start_ns sp)) spans;
      List.iter (fun (e : Recorder.event) -> acc := min64 !acc e.ts_ns) rec_events;
      List.iter (fun (e : Runtime_bridge.event) -> acc := min64 !acc e.rb_ts) rt_events;
      if !acc = Int64.max_int then 0L else !acc
    in
    let us ts = Int64.to_float (Int64.sub ts t0) /. 1e3 in
    let b = Buffer.create 8192 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let comma () = if !first then first := false else Buffer.add_string b ",\n" in
    comma ();
    Buffer.add_string b
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"cluseq\"}}";
    (* One thread_name metadata record per domain that appears anywhere. *)
    let tids = Hashtbl.create 8 in
    Hashtbl.replace tids 0 ();
    List.iter (fun (e : Recorder.event) -> Hashtbl.replace tids e.domain ()) rec_events;
    List.iter (fun (e : Runtime_bridge.event) -> Hashtbl.replace tids e.rb_domain ()) rt_events;
    Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
    |> List.sort compare
    |> List.iter (fun tid ->
           comma ();
           Buffer.add_string b
             (Printf.sprintf
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
                tid
                (if tid = 0 then "domain 0 (main)" else Printf.sprintf "domain %d" tid)));
    let rec emit_span sp =
      comma ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%s,\"dur\":%s}"
           (json_escape (Trace.name sp))
           (json_float (us (Trace.start_ns sp)))
           (json_float (Int64.to_float (Trace.duration_ns sp) /. 1e3)));
      List.iter emit_span (Trace.children sp)
    in
    List.iter emit_span spans;
    List.iter
      (fun (e : Recorder.event) ->
        comma ();
        let common =
          Printf.sprintf "\"name\":\"%s\",\"cat\":\"ring\",\"pid\":0,\"tid\":%d,\"ts\":%s"
            (json_escape e.ev_name) e.domain
            (json_float (us e.ts_ns))
        in
        match e.kind with
        | Recorder.Begin ->
            Buffer.add_string b
              (Printf.sprintf "{%s,\"ph\":\"B\",\"args\":{\"arg\":%d}}" common e.arg)
        | Recorder.End -> Buffer.add_string b (Printf.sprintf "{%s,\"ph\":\"E\"}" common)
        | Recorder.Instant ->
            Buffer.add_string b
              (Printf.sprintf "{%s,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"arg\":%d}}" common e.arg))
      rec_events;
    List.iter
      (fun (e : Runtime_bridge.event) ->
        comma ();
        let common =
          Printf.sprintf "\"name\":\"%s\",\"cat\":\"runtime\",\"pid\":0,\"tid\":%d,\"ts\":%s"
            (json_escape e.rb_name) e.rb_domain
            (json_float (us e.rb_ts))
        in
        match e.rb_kind with
        | Runtime_bridge.Begin -> Buffer.add_string b (Printf.sprintf "{%s,\"ph\":\"B\"}" common)
        | Runtime_bridge.End -> Buffer.add_string b (Printf.sprintf "{%s,\"ph\":\"E\"}" common)
        | Runtime_bridge.Instant ->
            Buffer.add_string b (Printf.sprintf "{%s,\"ph\":\"i\",\"s\":\"t\"}" common))
      rt_events;
    Buffer.add_string b "],\n\"displayTimeUnit\":\"ms\",\n";
    Buffer.add_string b
      (Printf.sprintf
         "\"otherData\":{\"clock\":\"CLOCK_MONOTONIC\",\"ring_events_dropped\":%d,\"runtime_events_dropped\":%d}}\n"
         (Recorder.dropped ()) (Runtime_bridge.dropped ()));
    Buffer.contents b

  (* Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*. *)
  let prom_name s =
    let s = String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_') s in
    if s = "" || match s.[0] with '0' .. '9' -> true | _ -> false then "_" ^ s else s

  let prom_float v =
    if v = infinity then "+Inf"
    else if v = neg_infinity then "-Inf"
    else if Float.is_nan v then "NaN"
    else
      (* Shortest representation that round-trips, so bucket labels read
         as "0.005" rather than "0.0050000000000000001". *)
      let s = Printf.sprintf "%g" v in
      if float_of_string s = v then s else Printf.sprintf "%.17g" v

  let to_prometheus () =
    let b = Buffer.create 4096 in
    List.iter
      (fun (name, e) ->
        let pname = prom_name name in
        match e with
        | Metrics.Counter c ->
            Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" pname);
            Buffer.add_string b (Printf.sprintf "%s %d\n" pname (Metrics.counter_value c))
        | Metrics.Gauge g ->
            Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" pname);
            Buffer.add_string b (Printf.sprintf "%s %s\n" pname (prom_float (Metrics.gauge_value g)))
        | Metrics.Histogram h ->
            Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
            let cumulative = ref 0 in
            Array.iter
              (fun (le, count) ->
                cumulative := !cumulative + count;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname (prom_float le) !cumulative))
              (Metrics.bucket_counts h);
            Buffer.add_string b
              (Printf.sprintf "%s_sum %s\n" pname (prom_float (Metrics.histogram_sum h)));
            Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname (Metrics.histogram_count h)))
      (Metrics.entries ());
    Buffer.contents b

  let pp_summary ppf () =
    let entries = Metrics.entries () in
    let width =
      List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 entries
    in
    let counters = List.filter (fun (_, e) -> match e with Metrics.Counter _ -> true | _ -> false) entries in
    let gauges = List.filter (fun (_, e) -> match e with Metrics.Gauge _ -> true | _ -> false) entries in
    let histograms = List.filter (fun (_, e) -> match e with Metrics.Histogram _ -> true | _ -> false) entries in
    Format.fprintf ppf "== metrics ==@\n";
    if counters <> [] then begin
      Format.fprintf ppf "counters:@\n";
      List.iter
        (fun (name, e) ->
          match e with
          | Metrics.Counter c ->
              Format.fprintf ppf "  %-*s %d@\n" width name (Metrics.counter_value c)
          | _ -> ())
        counters
    end;
    if gauges <> [] then begin
      Format.fprintf ppf "gauges:@\n";
      List.iter
        (fun (name, e) ->
          match e with
          | Metrics.Gauge g ->
              Format.fprintf ppf "  %-*s %g@\n" width name (Metrics.gauge_value g)
          | _ -> ())
        gauges
    end;
    if histograms <> [] then begin
      Format.fprintf ppf "histograms:@\n";
      List.iter
        (fun (name, e) ->
          match e with
          | Metrics.Histogram h ->
              let n = Metrics.histogram_count h in
              let mean = if n = 0 then 0.0 else Metrics.histogram_sum h /. float_of_int n in
              if n = 0 then
                Format.fprintf ppf "  %-*s n=%d mean=%.6g sum=%.6g@\n" width name n mean
                  (Metrics.histogram_sum h)
              else
                Format.fprintf ppf
                  "  %-*s n=%d mean=%.6g sum=%.6g p50=%.6g p95=%.6g p99=%.6g@\n" width name n
                  mean (Metrics.histogram_sum h) (Metrics.quantile h 0.50)
                  (Metrics.quantile h 0.95) (Metrics.quantile h 0.99)
          | _ -> ())
        histograms
    end;
    match Trace.roots () with
    | [] -> ()
    | _ ->
        Format.fprintf ppf "spans:@\n";
        Trace.pp ppf ()

  let summary () = Format.asprintf "%a" pp_summary ()

  let write_file path contents =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
end

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

module Logging = struct
  let level_of_verbosity n =
    if n <= 0 then Some Logs.Warning else if n = 1 then Some Logs.Info else Some Logs.Debug

  let setup ?(level = Some Logs.Warning) () =
    let level =
      match Sys.getenv_opt "CLUSEQ_LOG" with
      | Some s -> (
          match Logs.level_of_string (String.trim s) with Ok l -> l | Error _ -> level)
      | None -> level
    in
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ~app:Fmt.stderr ~dst:Fmt.stderr ())
end

let enable_all () =
  Metrics.enable ();
  Trace.enable ()

let reset () =
  Metrics.reset ();
  Trace.reset ();
  Recorder.reset ()
