(* The observability substrate: metrics registry, histograms, spans,
   the JSON parser, and the golden span-vs-timings agreement. *)

module Obs = Ujam_obs.Obs
module Json = Ujam_obs.Json
open Ujam_core

(* Every test runs with the memory sink on and leaves the process with
   the default no-op sink and a zeroed registry, so suite order cannot
   leak state between tests. *)
let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* Fresh histogram names per call: the registry is find-or-create, so a
   reused name would accumulate across property iterations. *)
let fresh_hist =
  let k = ref 0 in
  fun () ->
    incr k;
    Obs.histogram (Printf.sprintf "test.h.%d" !k)

let summary_eq (a : Obs.Histogram.summary) (b : Obs.Histogram.summary) =
  a.Obs.Histogram.count = b.Obs.Histogram.count
  && a.Obs.Histogram.min = b.Obs.Histogram.min
  && a.Obs.Histogram.max = b.Obs.Histogram.max
  && a.Obs.Histogram.mean = b.Obs.Histogram.mean
  && a.Obs.Histogram.p50 = b.Obs.Histogram.p50
  && a.Obs.Histogram.p95 = b.Obs.Histogram.p95
  && a.Obs.Histogram.p99 = b.Obs.Histogram.p99

(* ---- counters and gauges ---------------------------------------------- *)

let test_counter_basics () =
  with_obs (fun () ->
      let c = Obs.counter "test.counter.basics" in
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      Alcotest.(check int) "value" 42 (Obs.Counter.value c);
      Alcotest.(check string) "name" "test.counter.basics" (Obs.Counter.name c);
      let c' = Obs.counter "test.counter.basics" in
      Obs.Counter.incr c';
      Alcotest.(check int) "find-or-create shares state" 43 (Obs.Counter.value c))

let test_counter_multi_domain () =
  with_obs (fun () ->
      let c = Obs.counter "test.counter.domains" in
      let per_domain = 10_000 and domains = 4 in
      let spawned =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Obs.Counter.incr c
                done))
      in
      List.iter Domain.join spawned;
      Alcotest.(check int) "no lost increments" (domains * per_domain)
        (Obs.Counter.value c))

let test_disabled_sink_is_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "test.disabled.counter" in
  let g = Obs.gauge "test.disabled.gauge" in
  let h = Obs.histogram "test.disabled.hist" in
  Obs.Counter.incr c;
  Obs.Gauge.set g 3.0;
  Obs.Histogram.record h 0.5;
  Obs.Span.emit ~name:"test.disabled.span" ~t0:0.0 ~dur:1.0;
  ignore (Obs.Span.with_ "test.disabled.span2" (fun () -> 7));
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.Gauge.value g);
  Alcotest.(check int) "histogram untouched" 0
    (Obs.Histogram.summary h).Obs.Histogram.count;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Span.events ()))

(* ---- histogram properties --------------------------------------------- *)

let samples_gen =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (map (fun x -> Float.pow 10.0 ((x *. 14.0) -. 10.0)) (float_bound_inclusive 1.0)))

let samples_print vs =
  String.concat ";" (List.map (Printf.sprintf "%.3e") vs)

let prop_summary_order_independent =
  QCheck2.Test.make
    ~name:"property: histogram summary is order-independent" ~count:60
    ~print:samples_print samples_gen
    (fun vs ->
      with_obs (fun () ->
          let h1 = fresh_hist () and h2 = fresh_hist () in
          List.iter (Obs.Histogram.record h1) vs;
          List.iter (Obs.Histogram.record h2) (List.rev vs);
          summary_eq (Obs.Histogram.summary h1) (Obs.Histogram.summary h2)))

let prop_summary_domain_independent =
  (* the same multiset recorded from 1 or N domains yields the identical
     summary: every field is a pure function of integer bucket counts *)
  QCheck2.Test.make
    ~name:"property: 1-domain and N-domain recording agree" ~count:40
    ~print:samples_print samples_gen
    (fun vs ->
      with_obs (fun () ->
          let h1 = fresh_hist () and hn = fresh_hist () in
          List.iter (Obs.Histogram.record h1) vs;
          let chunks = Array.make 4 [] in
          List.iteri (fun i v -> chunks.(i mod 4) <- v :: chunks.(i mod 4)) vs;
          let spawned =
            Array.to_list
              (Array.map
                 (fun chunk ->
                   Domain.spawn (fun () ->
                       List.iter (Obs.Histogram.record hn) chunk))
                 chunks)
          in
          List.iter Domain.join spawned;
          summary_eq (Obs.Histogram.summary h1) (Obs.Histogram.summary hn)))

let prop_merge_associative =
  QCheck2.Test.make
    ~name:"property: histogram merge is associative and commutative"
    ~count:60
    ~print:(fun (a, b, c) ->
      Printf.sprintf "a=[%s] b=[%s] c=[%s]" (samples_print a) (samples_print b)
        (samples_print c))
    QCheck2.Gen.(triple samples_gen samples_gen samples_gen)
    (fun (va, vb, vc) ->
      with_obs (fun () ->
          let ha = fresh_hist () and hb = fresh_hist () and hc = fresh_hist () in
          List.iter (Obs.Histogram.record ha) va;
          List.iter (Obs.Histogram.record hb) vb;
          List.iter (Obs.Histogram.record hc) vc;
          let open Obs.Histogram in
          summary_eq
            (summary (merge (merge ha hb) hc))
            (summary (merge ha (merge hb hc)))
          && summary_eq (summary (merge ha hb)) (summary (merge hb ha))))

let test_histogram_quantiles () =
  with_obs (fun () ->
      let h = fresh_hist () in
      (* 100 samples at 1e-3, one outlier at 1.0: p50/p95 sit in the 1e-3
         bucket, p99 still does (rank 99 of 101), max sees the outlier *)
      for _ = 1 to 100 do
        Obs.Histogram.record h 1e-3
      done;
      Obs.Histogram.record h 1.0;
      let s = Obs.Histogram.summary h in
      Alcotest.(check int) "count" 101 s.Obs.Histogram.count;
      Alcotest.(check (float 1e-12)) "min" 1e-3 s.Obs.Histogram.min;
      Alcotest.(check (float 1e-12)) "max" 1.0 s.Obs.Histogram.max;
      let rep = Obs.Histogram.bucket_of 1e-3 in
      Alcotest.(check int) "p50 in the 1e-3 bucket" rep
        (Obs.Histogram.bucket_of s.Obs.Histogram.p50);
      Alcotest.(check int) "p95 in the 1e-3 bucket" rep
        (Obs.Histogram.bucket_of s.Obs.Histogram.p95);
      Alcotest.(check bool) "p99 below the outlier" true
        (s.Obs.Histogram.p99 < 0.5))

(* ---- sim.cache counters ------------------------------------------------ *)

let test_cache_counters () =
  with_obs (fun () ->
      let accesses = Obs.counter "sim.cache.accesses" in
      let misses = Obs.counter "sim.cache.misses" in
      let a0 = Obs.Counter.value accesses and m0 = Obs.Counter.value misses in
      let c = Ujam_sim.Cache.create ~size:16 ~line:4 ~assoc:1 () in
      for a = 0 to 31 do
        ignore (Ujam_sim.Cache.access c a)
      done;
      Alcotest.(check int) "accesses counted" 32
        (Obs.Counter.value accesses - a0);
      Alcotest.(check int) "misses match the cache's own count"
        (Ujam_sim.Cache.misses c)
        (Obs.Counter.value misses - m0))

(* ---- spans and the golden timing agreement ----------------------------- *)

let stage_sum events name =
  List.fold_left
    (fun acc (e : Obs.Span.event) ->
      if String.equal e.Obs.Span.name name then acc +. e.Obs.Span.dur else acc)
    0.0 events

let test_span_sums_equal_timings () =
  with_obs (fun () ->
      let machine = Ujam_machine.Presets.alpha in
      let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
      let ctx = Analysis_ctx.create ~bound:3 ~machine nest in
      ignore (Analysis_ctx.safety ctx);
      ignore (Analysis_ctx.balance ctx);
      ignore (Ujam_engine.Model.Ugs_tables.analyze ctx);
      let t = Analysis_ctx.timings ctx in
      let events = Obs.Span.events () in
      let check stage expected =
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "span sum = timings for %s" stage)
          expected (stage_sum events stage)
      in
      (* the same dt feeds the timings record and the span, so the sums
         agree to the last bit; the tolerance only covers fp re-summation *)
      check "graph" t.Analysis_ctx.graph_s;
      check "tables" t.Analysis_ctx.tables_s;
      check "search" t.Analysis_ctx.search_s;
      Alcotest.(check bool) "at least one stage span recorded" true
        (events <> []))

let test_span_nesting_and_chrome () =
  with_obs (fun () ->
      let r =
        Obs.Span.with_ "outer" (fun () ->
            Obs.Span.with_ "inner" (fun () -> 21) * 2)
      in
      Alcotest.(check int) "with_ passes the result through" 42 r;
      let events = Obs.Span.events () in
      Alcotest.(check int) "two spans" 2 (List.length events);
      let outer =
        List.find (fun e -> e.Obs.Span.name = "outer") events
      in
      let inner =
        List.find (fun e -> e.Obs.Span.name = "inner") events
      in
      Alcotest.(check bool) "inner contained in outer" true
        (inner.Obs.Span.t0 >= outer.Obs.Span.t0
        && inner.Obs.Span.dur <= outer.Obs.Span.dur);
      (* the Chrome envelope round-trips through our own parser *)
      let rendered = Json.to_string (Obs.Span.to_chrome ()) in
      match Json.of_string rendered with
      | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
      | Ok json -> (
          match Json.member "traceEvents" json with
          | Some (Json.List evs) ->
              Alcotest.(check int) "both spans exported" 2 (List.length evs);
              List.iter
                (fun e ->
                  Alcotest.(check bool) "complete event" true
                    (Json.member "ph" e = Some (Json.Str "X"));
                  match (Json.member "ts" e, Json.member "dur" e) with
                  | Some (Json.Int ts), Some (Json.Int dur) ->
                      Alcotest.(check bool) "non-negative microseconds" true
                        (ts >= 0 && dur >= 0)
                  | _ -> Alcotest.fail "ts/dur not integers")
                evs
          | _ -> Alcotest.fail "traceEvents missing"))

let test_dump_shape () =
  with_obs (fun () ->
      Obs.Counter.incr (Obs.counter "test.dump.c");
      Obs.Gauge.set (Obs.gauge "test.dump.g") 2.5;
      Obs.Histogram.record (Obs.histogram "test.dump.h") 0.125;
      let d = Obs.dump () in
      let field k =
        match Json.member k d with
        | Some (Json.Obj kvs) -> kvs
        | _ -> Alcotest.failf "dump lacks %s" k
      in
      Alcotest.(check bool) "counter dumped" true
        (List.mem_assoc "test.dump.c" (field "counters"));
      Alcotest.(check bool) "gauge dumped" true
        (List.mem_assoc "test.dump.g" (field "gauges"));
      match List.assoc_opt "test.dump.h" (field "histograms") with
      | Some (Json.Obj s) ->
          Alcotest.(check bool) "histogram has a count" true
            (List.mem_assoc "count" s)
      | _ -> Alcotest.fail "histogram summary missing")

(* ---- the JSON parser --------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("null", Json.Null);
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("i", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("s", Json.Str "a \"quoted\" \\ line\nbreak");
        ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("o", Json.Obj [ ("nested", Json.List [ Json.Null ]) ]) ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated";
  bad "{\"a\" 1}"

let test_json_numbers_and_escapes () =
  (match Json.of_string "[0, -7, 2.5, 1e3, -1.25e-2]" with
  | Ok
      (Json.List
        [ Json.Int 0; Json.Int (-7); Json.Float 2.5; Json.Float 1000.0;
          Json.Float f ]) ->
      Alcotest.(check (float 1e-12)) "exponent" (-0.0125) f
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Json.to_string other)
  | Error e -> Alcotest.failf "numbers failed: %s" e);
  (match Json.of_string "\"a\\u0041\\n\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escape" "aA\n" s
  | Ok _ | Error _ -> Alcotest.fail "string escapes failed");
  match Json.of_string "1e400" with
  | Ok (Json.Float f) ->
      (* non-finite floats render as null; the emitter guarantee *)
      Alcotest.(check string) "overflow renders as null" "null"
        (Json.to_string (Json.Float f))
  | Ok _ | Error _ -> Alcotest.fail "overflowing literal"

let suite =
  [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter across domains" `Quick test_counter_multi_domain;
    Alcotest.test_case "disabled sink is a no-op" `Quick
      test_disabled_sink_is_noop;
    Gen.to_alcotest prop_summary_order_independent;
    Gen.to_alcotest prop_summary_domain_independent;
    Gen.to_alcotest prop_merge_associative;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "sim.cache counters" `Quick test_cache_counters;
    Alcotest.test_case "span sums equal stage timings" `Quick
      test_span_sums_equal_timings;
    Alcotest.test_case "span nesting + chrome export" `Quick
      test_span_nesting_and_chrome;
    Alcotest.test_case "registry dump shape" `Quick test_dump_shape;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json numbers and escapes" `Quick
      test_json_numbers_and_escapes ]
