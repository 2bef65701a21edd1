(* Tests for the Obs instrumentation library: metrics registry semantics,
   span tracing, exporters, and the Timer stopwatch it is built on.

   The registry is process-global, so every test starts from
   [Obs.reset ()] and restores the disabled state before returning. *)

let with_clean_obs f =
  Obs.reset ();
  Obs.Metrics.enable ();
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Trace.disable ();
      Obs.Trace.clear_hooks ();
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_basic () =
  with_clean_obs @@ fun () ->
  let c = Obs.Metrics.counter "test.counter_basic" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "1 + 41" 42 (Obs.Metrics.counter_value c);
  Alcotest.(check string) "name" "test.counter_basic" (Obs.Metrics.counter_name c)

let test_find_or_create_identity () =
  with_clean_obs @@ fun () ->
  let a = Obs.Metrics.counter "test.same" in
  let b = Obs.Metrics.counter "test.same" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check int) "both handles hit one counter" 2 (Obs.Metrics.counter_value a)

let test_kind_mismatch () =
  with_clean_obs @@ fun () ->
  ignore (Obs.Metrics.counter "test.kind");
  Alcotest.(check bool) "gauge on counter name raises" true
    (try
       ignore (Obs.Metrics.gauge "test.kind");
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  with_clean_obs @@ fun () ->
  let g = Obs.Metrics.gauge "test.gauge" in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set g 3.5;
  Obs.Metrics.set g (-1.25);
  Alcotest.(check (float 0.0)) "last write wins" (-1.25) (Obs.Metrics.gauge_value g)

let test_histogram_buckets () =
  with_clean_obs @@ fun () ->
  let h = Obs.Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test.histo" in
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 1.0;
  (* boundary lands in its own bucket (le = upper bound) *)
  Obs.Metrics.observe h 5.0;
  Obs.Metrics.observe h 100.0;
  (* overflow *)
  let buckets = Obs.Metrics.bucket_counts h in
  Alcotest.(check int) "three buckets incl. +Inf" 3 (Array.length buckets);
  let le, n = buckets.(0) in
  Alcotest.(check (float 0.0)) "bucket 0 bound" 1.0 le;
  Alcotest.(check int) "bucket 0 count" 2 n;
  Alcotest.(check int) "bucket 1 count" 1 (snd buckets.(1));
  Alcotest.(check bool) "+Inf bound" true (fst buckets.(2) = infinity);
  Alcotest.(check int) "+Inf count" 1 (snd buckets.(2));
  Alcotest.(check int) "total count" 4 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 106.5 (Obs.Metrics.histogram_sum h)

let test_quantiles () =
  with_clean_obs @@ fun () ->
  let h = Obs.Metrics.histogram ~buckets:[| 10.0; 20.0; 30.0 |] "test.quant" in
  Alcotest.(check bool) "empty histogram -> nan" true
    (Float.is_nan (Obs.Metrics.quantile h 0.5));
  for _ = 1 to 4 do Obs.Metrics.observe h 5.0 done;
  for _ = 1 to 4 do Obs.Metrics.observe h 15.0 done;
  for _ = 1 to 2 do Obs.Metrics.observe h 25.0 done;
  (* rank 5 of 10 falls 1/4 into the (10, 20] bucket *)
  Alcotest.(check (float 1e-9)) "p50 interpolates" 12.5 (Obs.Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p90 interpolates" 25.0 (Obs.Metrics.quantile h 0.9);
  Alcotest.(check (float 1e-9)) "q=0 is the lower edge" 0.0 (Obs.Metrics.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q=1 is the upper edge" 30.0 (Obs.Metrics.quantile h 1.0);
  (* overflow observations clamp to the last finite bound *)
  for _ = 1 to 20 do Obs.Metrics.observe h 1000.0 done;
  Alcotest.(check (float 1e-9)) "overflow clamps to last bound" 30.0
    (Obs.Metrics.quantile h 0.99);
  Alcotest.(check bool) "q out of range raises" true
    (try
       ignore (Obs.Metrics.quantile h 1.5);
       false
     with Invalid_argument _ -> true)

let test_quantile_edges () =
  with_clean_obs @@ fun () ->
  (* empty: every q is nan, not an exception and not a bogus 0 *)
  let empty = Obs.Metrics.histogram ~buckets:[| 10.0 |] "test.quant_empty" in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "empty histogram q=%g -> nan" q)
        true
        (Float.is_nan (Obs.Metrics.quantile empty q)))
    [ 0.0; 0.5; 1.0 ];
  (* single sample: all quantiles land in its bucket, interpolated *)
  let one = Obs.Metrics.histogram ~buckets:[| 10.0; 20.0 |] "test.quant_one" in
  Obs.Metrics.observe one 15.0;
  Alcotest.(check (float 1e-9)) "single sample q=0 is bucket lower edge" 10.0
    (Obs.Metrics.quantile one 0.0);
  Alcotest.(check (float 1e-9)) "single sample p50 is bucket midpoint" 15.0
    (Obs.Metrics.quantile one 0.5);
  Alcotest.(check (float 1e-9)) "single sample q=1 is bucket upper edge" 20.0
    (Obs.Metrics.quantile one 1.0);
  (* all mass in one interior bucket: quantiles interpolate linearly
     across that bucket and never leave it *)
  let mass = Obs.Metrics.histogram ~buckets:[| 10.0; 20.0; 30.0 |] "test.quant_mass" in
  for _ = 1 to 10 do Obs.Metrics.observe mass 15.0 done;
  Alcotest.(check (float 1e-9)) "all-mass p50" 15.0 (Obs.Metrics.quantile mass 0.5);
  Alcotest.(check (float 1e-9)) "all-mass p95" 19.5 (Obs.Metrics.quantile mass 0.95);
  Alcotest.(check (float 1e-9)) "all-mass q=1 stays at bucket edge" 20.0
    (Obs.Metrics.quantile mass 1.0);
  let prev = ref neg_infinity in
  List.iter
    (fun q ->
      let v = Obs.Metrics.quantile mass q in
      Alcotest.(check bool) "quantile within occupied bucket" true (v >= 10.0 && v <= 20.0);
      Alcotest.(check bool) "quantile monotone in q" true (v >= !prev);
      prev := v)
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let test_disabled_noop () =
  Obs.reset ();
  Obs.Metrics.disable ();
  let c = Obs.Metrics.counter "test.disabled" in
  let g = Obs.Metrics.gauge "test.disabled_g" in
  let h = Obs.Metrics.histogram "test.disabled_h" in
  Obs.Metrics.incr ~by:100 c;
  Obs.Metrics.set g 7.0;
  Obs.Metrics.observe h 1.0;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.histogram_count h);
  Obs.reset ()

let test_reset_in_place () =
  with_clean_obs @@ fun () ->
  let c = Obs.Metrics.counter "test.reset" in
  Obs.Metrics.incr ~by:5 c;
  Obs.Metrics.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "handle still live" 1 (Obs.Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_clean_obs @@ fun () ->
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Trace.with_span "inner_a" (fun () -> ());
      Obs.Trace.with_span "inner_b" (fun () -> ()));
  Obs.Trace.with_span "second_root" (fun () -> ());
  let roots = Obs.Trace.roots () in
  Alcotest.(check (list string)) "two roots, oldest first" [ "outer"; "second_root" ]
    (List.map Obs.Trace.name roots);
  let outer = List.hd roots in
  Alcotest.(check (list string)) "children in order" [ "inner_a"; "inner_b" ]
    (List.map Obs.Trace.name (Obs.Trace.children outer))

let test_span_timing_monotone () =
  with_clean_obs @@ fun () ->
  Obs.Trace.with_span "parent" (fun () ->
      Obs.Trace.with_span "child" (fun () ->
          (* burn a little time so durations are strictly positive *)
          let x = ref 0 in
          for i = 1 to 10_000 do
            x := !x + i
          done;
          ignore !x));
  match Obs.Trace.roots () with
  | [ parent ] ->
      let child = List.hd (Obs.Trace.children parent) in
      Alcotest.(check bool) "child duration > 0" true (Obs.Trace.duration_ns child > 0L);
      Alcotest.(check bool) "parent >= child" true
        (Obs.Trace.duration_ns parent >= Obs.Trace.duration_ns child);
      Alcotest.(check bool) "duration_s consistent" true
        (Obs.Trace.duration_s parent >= Obs.Trace.duration_s child)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_exception_safety () =
  with_clean_obs @@ fun () ->
  (try Obs.Trace.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Obs.Trace.with_span "after" (fun () -> ());
  Alcotest.(check (list string)) "raising span closed, stack not corrupted"
    [ "raises"; "after" ]
    (List.map Obs.Trace.name (Obs.Trace.roots ()))

let test_span_hooks () =
  with_clean_obs @@ fun () ->
  let events = ref [] in
  Obs.Trace.on_start (fun s -> events := ("start " ^ Obs.Trace.name s) :: !events);
  Obs.Trace.on_stop (fun s -> events := ("stop " ^ Obs.Trace.name s) :: !events);
  Obs.Trace.with_span "a" (fun () -> Obs.Trace.with_span "b" (fun () -> ()));
  Alcotest.(check (list string)) "hook order"
    [ "start a"; "start b"; "stop b"; "stop a" ]
    (List.rev !events)

let test_span_disabled_passthrough () =
  Obs.reset ();
  Obs.Trace.disable ();
  let r = Obs.Trace.with_span "ignored" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Trace.roots ()));
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let with_clean_recorder f =
  Obs.reset ();
  Obs.Recorder.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Recorder.disable ();
      Obs.Recorder.set_capacity 65536;
      Obs.reset ())
    f

let test_recorder_disabled_noop () =
  Obs.reset ();
  Obs.Recorder.disable ();
  let ev = Obs.Recorder.intern "test.rec_off" in
  Obs.Recorder.begin_ ev;
  Obs.Recorder.instant ~arg:9 ev;
  Obs.Recorder.end_ ev;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Recorder.events ()));
  Alcotest.(check int) "nothing dropped" 0 (Obs.Recorder.dropped ());
  Obs.reset ()

let test_recorder_roundtrip () =
  with_clean_recorder @@ fun () ->
  let a = Obs.Recorder.intern "test.rec_a" in
  let b = Obs.Recorder.intern "test.rec_b" in
  Obs.Recorder.begin_ ~arg:7 a;
  Obs.Recorder.instant ~arg:3 b;
  Obs.Recorder.end_ a;
  match Obs.Recorder.events () with
  | [ e1; e2; e3 ] ->
      Alcotest.(check bool) "kinds in order" true
        (e1.Obs.Recorder.kind = Obs.Recorder.Begin
        && e2.Obs.Recorder.kind = Obs.Recorder.Instant
        && e3.Obs.Recorder.kind = Obs.Recorder.End);
      Alcotest.(check string) "begin name" "test.rec_a" e1.ev_name;
      Alcotest.(check string) "instant name" "test.rec_b" e2.ev_name;
      Alcotest.(check int) "begin arg" 7 e1.arg;
      Alcotest.(check int) "instant arg" 3 e2.arg;
      Alcotest.(check bool) "timestamps monotone" true
        (e1.ts_ns <= e2.ts_ns && e2.ts_ns <= e3.ts_ns);
      Alcotest.(check bool) "same domain" true
        (e1.domain = e2.domain && e2.domain = e3.domain)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_recorder_with_event_exception_safe () =
  with_clean_recorder @@ fun () ->
  let ev = Obs.Recorder.intern "test.rec_exn" in
  (try Obs.Recorder.with_event ev (fun () -> failwith "boom") with Failure _ -> ());
  let kinds = List.map (fun e -> e.Obs.Recorder.kind) (Obs.Recorder.events ()) in
  Alcotest.(check bool) "end emitted despite the raise" true
    (kinds = [ Obs.Recorder.Begin; Obs.Recorder.End ])

let test_recorder_wraparound () =
  with_clean_recorder @@ fun () ->
  (* A fresh domain gets a fresh (small) ring; the main domain's ring
     already exists at its default capacity. *)
  Obs.Recorder.set_capacity 16;
  let d =
    Domain.spawn (fun () ->
        let ev = Obs.Recorder.intern "test.rec_wrap" in
        for i = 0 to 39 do
          Obs.Recorder.instant ~arg:i ev
        done)
  in
  Domain.join d;
  let evs =
    List.filter (fun e -> e.Obs.Recorder.ev_name = "test.rec_wrap") (Obs.Recorder.events ())
  in
  Alcotest.(check int) "ring keeps the newest capacity-many" 16 (List.length evs);
  Alcotest.(check int) "overwritten events counted as dropped" 24 (Obs.Recorder.dropped ());
  let args = List.map (fun e -> e.Obs.Recorder.arg) evs in
  Alcotest.(check int) "oldest survivor" 24 (List.fold_left min max_int args);
  Alcotest.(check int) "newest survivor" 39 (List.fold_left max min_int args);
  Obs.Recorder.reset ();
  Alcotest.(check int) "reset empties rings" 0 (List.length (Obs.Recorder.events ()));
  Alcotest.(check int) "reset clears drop count" 0 (Obs.Recorder.dropped ())

let test_recorder_multi_domain () =
  with_clean_recorder @@ fun () ->
  let ev = Obs.Recorder.intern "test.rec_md" in
  Obs.Recorder.instant ~arg:0 ev;
  let spawned =
    Domain.spawn (fun () ->
        Obs.Recorder.instant ~arg:1 ev;
        (Domain.self () :> int))
  in
  let worker_id = Domain.join spawned in
  let evs =
    List.filter (fun e -> e.Obs.Recorder.ev_name = "test.rec_md") (Obs.Recorder.events ())
  in
  let domains = List.sort_uniq compare (List.map (fun e -> e.Obs.Recorder.domain) evs) in
  Alcotest.(check int) "events from both domains" 2 (List.length domains);
  Alcotest.(check bool) "worker ring tagged with its domain id" true
    (List.exists (fun e -> e.Obs.Recorder.domain = worker_id && e.arg = 1) evs)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_json_export () =
  with_clean_obs @@ fun () ->
  Obs.Metrics.incr ~by:3 (Obs.Metrics.counter "test.json_c");
  Obs.Metrics.set (Obs.Metrics.gauge "test.json_g") 1.5;
  Obs.Metrics.observe (Obs.Metrics.histogram ~buckets:[| 1.0 |] "test.json_h") 2.0;
  Obs.Trace.with_span "test_root" (fun () -> ());
  let json = Obs.Export.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true
        (contains ~needle json))
    [
      "\"test.json_c\": 3";
      "\"test.json_g\": 1.5";
      "\"test.json_h\"";
      "\"p50\"";
      "\"p95\"";
      "\"p99\"";
      "\"+Inf\"";
      "\"spans\"";
      "\"test_root\"";
    ]

let test_json_export_omits_empty_quantiles () =
  with_clean_obs @@ fun () ->
  (* A registered-but-never-observed histogram must not export nan (or
     any) quantiles — only count 0, sum 0, and its buckets. *)
  ignore (Obs.Metrics.histogram ~buckets:[| 1.0 |] "test.json_empty_h");
  let json = Obs.Export.to_json () in
  Alcotest.(check bool) "empty histogram exported" true
    (contains ~needle:"\"test.json_empty_h\"" json);
  Alcotest.(check bool) "count is zero" true (contains ~needle:"\"count\": 0" json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "no %s for empty histogram" needle) false
        (contains ~needle json))
    [ "\"p50\""; "\"p95\""; "\"p99\""; "nan" ]

let test_prometheus_export () =
  with_clean_obs @@ fun () ->
  Obs.Metrics.incr ~by:7 (Obs.Metrics.counter "test.prom c");
  let h = Obs.Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test.prom_h" in
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 1.5;
  Obs.Metrics.observe h 99.0;
  let prom = Obs.Export.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "prom contains %s" needle) true
        (contains ~needle prom))
    [
      (* names sanitized to [a-zA-Z0-9_:] *)
      "# TYPE test_prom_c counter";
      "test_prom_c 7";
      "# TYPE test_prom_h histogram";
      (* buckets are cumulative *)
      "test_prom_h_bucket{le=\"1\"} 1";
      "test_prom_h_bucket{le=\"2\"} 2";
      "test_prom_h_bucket{le=\"+Inf\"} 3";
      "test_prom_h_count 3";
    ]

let test_summary_export () =
  with_clean_obs @@ fun () ->
  Obs.Metrics.incr (Obs.Metrics.counter "test.summary");
  let s = Obs.Export.summary () in
  Alcotest.(check bool) "summary mentions the counter" true
    (contains ~needle:"test.summary" s)

(* ------------------------------------------------------------------ *)
(* Resource profiling                                                  *)
(* ------------------------------------------------------------------ *)

(* Allocate enough boxed data that minor_words must move. *)
let churn n =
  let acc = ref [] in
  for i = 1 to n do
    acc := float_of_int i :: !acc
  done;
  List.length !acc

let test_resource_measure_nonneg () =
  let len, d = Obs.Resource.measure (fun () -> churn 100_000) in
  Alcotest.(check int) "thunk result passes through" 100_000 len;
  Alcotest.(check bool) "minor words allocated" true (d.Obs.Resource.minor_words > 0.0);
  Alcotest.(check bool) "promoted words non-negative" true (d.promoted_words >= 0.0);
  Alcotest.(check bool) "major words non-negative" true (d.major_words >= 0.0);
  Alcotest.(check bool) "minor collections non-negative" true (d.minor_collections >= 0);
  Alcotest.(check bool) "major collections non-negative" true (d.major_collections >= 0);
  Alcotest.(check bool) "compactions non-negative" true (d.compactions >= 0);
  Alcotest.(check bool) "top-heap growth non-negative" true (d.top_heap_words >= 0)

(* On OCaml 5 the raw [top_heap_words] reading can fall when a domain
   terminates between the two samples; the delta must still read as
   growth, never as a negative number. *)
let test_resource_measure_domain_exit () =
  for trial = 1 to 50 do
    let _, d =
      Obs.Resource.measure (fun () ->
          (* Each domain allocates straight into its major heap, so its
             heap counts toward the watermark until it exits. *)
          List.init 3 (fun _ ->
              Domain.spawn (fun () -> Sys.opaque_identity (Array.make 100_000 0.0)))
          |> List.iter (fun dm -> ignore (Domain.join dm)))
    in
    if d.Obs.Resource.top_heap_words < 0 then
      Alcotest.failf "trial %d: top-heap growth %d across a domain spawn/join" trial
        d.top_heap_words
  done

let test_resource_measure_nesting () =
  let (_, inner), outer =
    Obs.Resource.measure (fun () ->
        let before = Obs.Resource.measure (fun () -> churn 50_000) in
        ignore (churn 50_000);
        before)
  in
  Alcotest.(check bool) "outer includes inner minor words" true
    (outer.Obs.Resource.minor_words >= inner.Obs.Resource.minor_words);
  Alcotest.(check bool) "outer includes inner collections" true
    (outer.minor_collections >= inner.minor_collections)

let test_resource_add () =
  let _, a = Obs.Resource.measure (fun () -> churn 10_000) in
  let sum = Obs.Resource.add a a in
  Alcotest.(check (float 1e-6)) "add doubles minor words" (2.0 *. a.Obs.Resource.minor_words)
    sum.Obs.Resource.minor_words;
  Alcotest.(check int) "add sums collections" (2 * a.minor_collections) sum.minor_collections;
  Alcotest.(check bool) "zero is neutral" true (Obs.Resource.add Obs.Resource.zero a = a)

let test_resource_peak_sampler () =
  Obs.Resource.start_sampler ();
  Obs.Resource.reset_peak ();
  let p0 = Obs.Resource.peak_heap_words () in
  Alcotest.(check bool) "peak positive" true (p0 > 0);
  (* grow the major heap, then force a major cycle so the alarm fires *)
  let big = Array.init 200_000 (fun i -> float_of_int i) in
  Gc.full_major ();
  let p1 = Obs.Resource.peak_heap_words () in
  ignore (Array.length big);
  Alcotest.(check bool) "peak grew with the heap" true (p1 >= p0);
  Obs.Resource.stop_sampler ();
  Obs.Resource.reset_peak ();
  let p2 = Obs.Resource.peak_heap_words () in
  Alcotest.(check bool) "reset re-arms from the current heap" true (p2 > 0 && p2 <= p1)

let test_resource_publish () =
  with_clean_obs @@ fun () ->
  let _, d = Obs.Resource.measure (fun () -> churn 50_000) in
  Obs.Resource.publish ~prefix:"test.gc" d;
  Alcotest.(check (float 0.0)) "gauge mirrors the delta" d.Obs.Resource.minor_words
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "test.gc.minor_words"));
  Alcotest.(check bool) "peak gauge set" true
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "test.gc.peak_heap_words") > 0.0)

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Runtime_events bridge                                               *)
(* ------------------------------------------------------------------ *)

let test_runtime_bridge_stop_idempotent () =
  (* stop without ever starting: a no-op, never a crash *)
  Obs.Runtime_bridge.stop ();
  Alcotest.(check bool) "inactive after cold stop" false (Obs.Runtime_bridge.is_active ());
  (* start (may legitimately fail in odd environments), then stop
     repeatedly: the second stop must find no cursor to double-free *)
  if Obs.Runtime_bridge.start () then begin
    Alcotest.(check bool) "active after start" true (Obs.Runtime_bridge.is_active ());
    ignore (Obs.Runtime_bridge.poll ());
    Obs.Runtime_bridge.stop ();
    Alcotest.(check bool) "inactive after stop" false (Obs.Runtime_bridge.is_active ());
    Obs.Runtime_bridge.stop ();
    Alcotest.(check bool) "still inactive after double stop" false
      (Obs.Runtime_bridge.is_active ());
    (* and the bridge can come back up after a full stop cycle *)
    Alcotest.(check bool) "restartable" true (Obs.Runtime_bridge.start ());
    Obs.Runtime_bridge.stop ()
  end;
  Obs.Runtime_bridge.reset ()

let test_timer_monotone () =
  let a = Timer.now_ns () in
  let b = Timer.now_ns () in
  Alcotest.(check bool) "clock never goes back" true (b >= a);
  Alcotest.(check bool) "span_s non-negative" true (Timer.span_s a b >= 0.0)

let test_stopwatch () =
  let t = Timer.create () in
  Alcotest.(check bool) "not running" false (Timer.running t);
  Alcotest.(check (float 0.0)) "zero" 0.0 (Timer.elapsed_s t);
  Timer.start t;
  let x = ref 0 in
  for i = 1 to 10_000 do
    x := !x + i
  done;
  ignore !x;
  Timer.stop t;
  let once = Timer.elapsed_ns t in
  Alcotest.(check bool) "accumulated > 0" true (once > 0L);
  (* stopped: elapsed stays put *)
  Alcotest.(check bool) "stable when stopped" true (Timer.elapsed_ns t = once);
  Timer.start t;
  Timer.stop t;
  Alcotest.(check bool) "second interval accumulates" true (Timer.elapsed_ns t >= once);
  Timer.reset t;
  Alcotest.(check bool) "reset to zero" true (Timer.elapsed_ns t = 0L)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basic;
          Alcotest.test_case "find-or-create identity" `Quick test_find_or_create_identity;
          Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "reset keeps handles live" `Quick test_reset_in_place;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_recorder_disabled_noop;
          Alcotest.test_case "begin/instant/end round trip" `Quick test_recorder_roundtrip;
          Alcotest.test_case "with_event exception safety" `Quick
            test_recorder_with_event_exception_safe;
          Alcotest.test_case "wrap-around and drop accounting" `Quick test_recorder_wraparound;
          Alcotest.test_case "per-domain rings" `Quick test_recorder_multi_domain;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "timing monotonicity" `Quick test_span_timing_monotone;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "start/stop hooks" `Quick test_span_hooks;
          Alcotest.test_case "disabled passthrough" `Quick test_span_disabled_passthrough;
        ] );
      ( "export",
        [
          Alcotest.test_case "json" `Quick test_json_export;
          Alcotest.test_case "json omits empty-histogram quantiles" `Quick
            test_json_export_omits_empty_quantiles;
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
          Alcotest.test_case "summary" `Quick test_summary_export;
        ] );
      ( "resource",
        [
          Alcotest.test_case "measure non-negative" `Quick test_resource_measure_nonneg;
          Alcotest.test_case "measure nesting" `Quick test_resource_measure_nesting;
          Alcotest.test_case "delta addition" `Quick test_resource_add;
          Alcotest.test_case "peak-heap sampler" `Quick test_resource_peak_sampler;
          Alcotest.test_case "gauge publication" `Quick test_resource_publish;
          Alcotest.test_case "measure across domain exit" `Quick
            test_resource_measure_domain_exit;
        ] );
      ( "runtime-bridge",
        [
          Alcotest.test_case "stop is idempotent" `Quick test_runtime_bridge_stop_idempotent;
        ] );
      ( "timer",
        [
          Alcotest.test_case "monotone clock" `Quick test_timer_monotone;
          Alcotest.test_case "stopwatch" `Quick test_stopwatch;
        ] );
    ]
