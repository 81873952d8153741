(* The end-to-end benchmark, one workload per process.

     main.exe --workload W [--seed S] [--seconds T] [--trace 0|1]
     main.exe --smoke BENCHMARK.json

   Untraced (--trace 0): set up the inputs, run one untimed warm-up
   repetition, then timed repetitions until they add up to T seconds,
   clearing the process memos before each.  A batch of set-ups is timed
   before the warm-up and before each repetition.  Prints every
   end-to-end metric: the median over repetitions of each repetition's
   throughput and latency quantiles, the peak RSS, and setup_s, the
   median over batches of the mean set-up time.

   Traced (--trace 1): one repetition on one domain with each layer
   called separately inside benchmark-recorded spans; prints every
   per-layer metric and writes the spans as a Chrome trace to
   .bench_build/e2e/trace-W.json.

   Either way the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}; a human summary goes to
   stderr.  Exit status 1 when any output check failed.

   --smoke runs every workload at tiny sizes, untraced and traced, and
   checks that each emits exactly the metrics BENCHMARK.json names.

   --daemon PATH is the serve-mixed daemon, and --setup W SEED SIZE
   times one batch of set-ups; the untraced run starts each as a
   process of its own. *)

module Json = Ujam_obs.Json
module W = Workloads

type source =
  | Self of string  (** self time of a layer span *)
  | Words of string  (** self allocation of a layer span *)
  | Given  (** reported by the workload's traced run; 0 where absent *)
  | Cells
  | Unattributed

let per_layer =
  [ ("workload.generate_s", "s", Self "workload.generate");
    ("workload.accept_ratio", "ratio", Given);
    ("ir.intern_s", "s", Self "ir.intern");
    ("ir.parse_s", "s", Self "ir.parse");
    ("depend.graph_s", "s", Self "depend.graph");
    ("reuse.ugs_s", "s", Self "reuse.ugs");
    ("core.tables_s", "s", Self "core.tables");
    ("core.tables_alloc_words", "words", Words "core.tables");
    ("core.tables_cells", "count", Cells);
    ("core.search_s", "s", Self "core.search");
    ("core.search_alloc_words", "words", Words "core.search");
    ("analysis.cachecheck_s", "s", Self "analysis.cachecheck");
    ("analysis.cachecheck_alloc_words", "words", Words "analysis.cachecheck");
    ("analysis.verify_s", "s", Self "analysis.verify");
    ("sim.run_s", "s", Self "sim.run");
    ("sim.alloc_words", "words", Words "sim.run");
    ("sim.norm_time_geomean", "ratio", Given);
    ("engine.render_s", "s", Self "engine.render");
    ("engine.par_speedup", "ratio", Given);
    ("engine.memo_hit_ratio", "ratio", Given);
    ("serve.hit_ratio", "ratio", Given);
    ("serve.hit_p50_ms", "ms", Given);
    ("serve.miss_p50_ms", "ms", Given);
    ("serve.decode_s", "s", Self "serve.decode");
    ("serve.batch_size_p50", "count", Given);
    ("oracle.recount_s", "s", Self "oracle.recount");
    ("oracle.sim_s", "s", Self "oracle.sim");
    ("oracle.cross-model_s", "s", Self "oracle.cross-model");
    ("oracle.verify_s", "s", Self "oracle.verify");
    ("oracle.cachepred_s", "s", Self "oracle.cachepred");
    ("trace.overhead_ratio", "ratio", Given);
    ("trace.unattributed_ratio", "ratio", Unattributed) ]

let unit_of = function
  | "throughput_per_s" -> "1/s"
  | "latency_p50_ms" | "latency_p99_ms" -> "ms"
  | "peak_rss_mb" -> "MB"
  | "setup_s" -> "s"
  | name -> (
      match List.find_opt (fun (n, _, _) -> String.equal n name) per_layer with
      | Some (_, u, _) -> u
      | None -> "")

(* A traced run may leave at most this share of op time outside every
   layer span. *)
let max_unattributed = 0.05

(* The human summary on stderr; --smoke turns it off. *)
let verbose = ref true
let log fmt = Printf.ksprintf (fun s -> if !verbose then prerr_string s) fmt

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let summarize name values =
  let a = Array.of_list values in
  log "  %-32s %14.6g %-6s median of %d (q1 %.6g, q3 %.6g)\n" name
    (Stats.median a) (unit_of name) (Array.length a) (Stats.quantile a 0.25)
    (Stats.quantile a 0.75)

(* Set-up is timed in batches: back-to-back set-ups until [setup_batch_s]
   has passed, one sample being their mean.  One batch runs before the
   warm-up and one before each timed repetition, and setup_s is the
   median over batches.  A set-up of fuzz or kernels takes 0.03-0.3 ms,
   and the machine runs such work 1.5x slower in stretches of tens of
   milliseconds.  Timed back to back before the repetitions (25 or
   1000 of them), the median fell in either mode and spread by
   0.39-0.55 over ten seeds.  Spread over the run, the slow stretches
   are a minority of the batches, as they are of the repetitions, and
   the spread was 0.03-0.13.

   Each batch runs in a process of its own ([main.exe --setup]), after
   one untimed set-up that grows that process's heap.  Run in the
   benchmark process, the discarded inputs stayed in its heap: corpus
   peak RSS rose from 64 to 102 MB. *)
let setup_batch_s = 0.05

let size_name = function W.Full -> "full" | W.Smoke -> "smoke"

let setup_batch (w : W.t) ~seed size =
  let once () =
    W.fresh ();
    snd (W.time (fun () -> w.W.setup ~seed size))
  in
  ignore (once () : float);
  let rec go n spent =
    let n = n + 1 and spent = spent +. once () in
    if size = W.Smoke || spent >= setup_batch_s then spent /. float_of_int n else go n spent
  in
  go 0 0.0

(* One set-up sample, from a fresh process running [setup_batch]. *)
let setup_sample (w : W.t) ~seed size =
  flush_all ();
  let argv =
    [| Sys.executable_name; "--setup"; w.W.name; string_of_int seed; size_name size |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("e2e: the set-up process of " ^ w.W.name ^ " failed")

let untraced (w : W.t) ~seed ~seconds size =
  W.fresh ();
  let inst = w.W.setup ~seed size in
  log "e2e %s: %s\n" w.W.name inst.W.inputs;
  let first_setup = setup_sample w ~seed size in
  W.fresh ();
  let warm = inst.W.rep () in
  (* the run lasts [seconds] of repetitions, set-up batches excluded *)
  let rec loop reps setups spent =
    if reps <> [] && spent >= seconds then (reps, setups)
    else begin
      let setup = setup_sample w ~seed size in
      W.fresh ();
      let r = inst.W.rep () in
      loop (r :: reps) (setup :: setups) (spent +. r.W.wall_s)
    end
  in
  let reps, setup_times = loop [] [ first_setup ] 0.0 in
  let all = warm :: reps in
  (* each statistic per repetition, then its median over repetitions:
     a repetition slowed by the machine moves none of them *)
  let per_rep f = List.map f reps in
  let latency q = per_rep (fun (r : W.rep) -> Stats.quantile (Array.of_list r.W.lat_ms) q) in
  let throughput = per_rep (fun (r : W.rep) -> float_of_int r.W.ops /. r.W.wall_s) in
  let p50 = latency 0.5 and p99 = latency 0.99 in
  log "e2e %s: %d timed repetitions of %d ops after 1 warm-up\n" w.W.name
    (List.length reps) (List.hd reps).W.ops;
  summarize "throughput_per_s" throughput;
  summarize "latency_p50_ms" p50;
  summarize "latency_p99_ms" p99;
  summarize "setup_s" setup_times;
  let median l = Stats.median (Array.of_list l) in
  let failed = List.fold_left (fun n (r : W.rep) -> n + r.W.failed) 0 all in
  { correct = failed = 0;
    attempted = List.fold_left (fun n (r : W.rep) -> n + r.W.ops) 0 all;
    failed;
    metrics =
      [ ("throughput_per_s", median throughput);
        ("latency_p50_ms", median p50);
        ("latency_p99_ms", median p99);
        ("peak_rss_mb", inst.W.peak_rss_mb ());
        ("setup_s", median setup_times) ] }

(* Write the spans as a Chrome trace and check that it reads back. *)
let write_trace name =
  let path = Filename.concat (W.scratch_dir ()) ("trace-" ^ name ^ ".json") in
  let text = Json.to_string (Span.to_chrome ()) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  let back = In_channel.with_open_bin path In_channel.input_all in
  let events =
    match Json.of_string back with
    | Ok j -> (
        match Json.member "traceEvents" j with Some (Json.List l) -> List.length l | _ -> -1)
    | Error _ -> -1
  in
  log "e2e %s: wrote %s (%d spans)\n" name path events;
  W.check (events = !Span.count) "trace %s does not read back" path

let traced (w : W.t) ~seed size =
  let inst = w.W.setup ~seed size in
  log "e2e %s: %s\n" w.W.name inst.W.inputs;
  Span.clear ();
  W.cells := 0;
  W.fresh ();
  let before = !W.failures in
  let given = inst.W.traced () in
  let trace_ok = write_trace w.W.name in
  let tbl = Span.self_by_name () in
  let span f name =
    match Hashtbl.find_opt tbl name with Some s -> f s | None -> 0.0
  in
  let unattributed = Span.unattributed_ratio () in
  let metrics =
    List.map
      (fun (name, _, source) ->
        ( name,
          match source with
          | Self s -> span (fun x -> x.Span.self_s) s
          | Words s -> span (fun x -> x.Span.self_words) s
          | Given -> Option.value (List.assoc_opt name given) ~default:0.0
          | Cells -> float_of_int !W.cells
          | Unattributed -> unattributed ))
      per_layer
  in
  log "e2e %s: where the time goes (layer self time)\n" w.W.name;
  let layers =
    Hashtbl.fold (fun n (s : Span.self) acc -> (n, s) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b.Span.self_s a.Span.self_s)
  in
  List.iter
    (fun (n, (s : Span.self)) ->
      log "  %-22s %10.4f s %8d calls %14.0f words\n" n s.Span.self_s
        s.Span.calls s.Span.self_words)
    layers;
  let within =
    W.check
      (unattributed <= max_unattributed)
      "%s: %.3f of op time is outside every layer span" w.W.name unattributed
  in
  let ops = List.length (List.filter (fun s -> s.Span.is_op) (Span.spans ())) in
  { correct = trace_ok && within && !W.failures = before;
    attempted = max 1 ops;
    failed = !W.failures - before;
    metrics }

let result_line o =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) o.metrics in
  let metric (name, v) =
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name
      (if Float.is_finite v then v else 0.0)
      (unit_of name)
  in
  ( o.correct && finite,
    Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
      (o.correct && finite) o.attempted o.failed
      (String.concat ", " (List.map metric o.metrics)) )

(* ------------------------------------------------------------------ *)
(* --smoke: every workload, tiny sizes, against BENCHMARK.json.         *)

let names_in spec key =
  match Json.member key spec with
  | Some (Json.List l) ->
      List.filter_map
        (fun e -> match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None)
        l
  | _ -> []

let smoke spec_path =
  verbose := false;
  let spec =
    match Json.of_string (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (spec_path ^ ": " ^ e)
  in
  let same what expect got =
    W.check
      (List.sort compare expect = List.sort compare got)
      "%s: BENCHMARK.json names [%s], the benchmark emits [%s]" what
      (String.concat " " expect) (String.concat " " got)
  in
  (* each workload in its own child process, as run.py runs them, so
     that peak RSS and memos stay per workload *)
  let check_workload (w : W.t) =
    let u = untraced w ~seed:1997 ~seconds:0.0 W.Smoke in
    let t = traced w ~seed:1997 W.Smoke in
    let ok_u, _ = result_line u and ok_t, _ = result_line t in
    W.check ok_u "%s: untraced run failed" w.W.name
    && W.check ok_t "%s: traced run failed" w.W.name
    && same (w.W.name ^ " end_to_end") (names_in spec "end_to_end") (List.map fst u.metrics)
    && same (w.W.name ^ " per_layer") (names_in spec "per_layer") (List.map fst t.metrics)
  in
  let in_child (w : W.t) =
    flush_all ();
    match Unix.fork () with
    | 0 -> exit (if check_workload w then 0 else 1)
    | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  in
  let ok =
    List.fold_left
      (fun ok w -> in_child w && ok)
      (same "workloads" (names_in spec "workloads")
         (List.map (fun (w : W.t) -> w.W.name) W.all))
      W.all
  in
  if not ok then prerr_endline "e2e smoke: FAILED";
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed S] [--seconds T] [--trace 0|1]\n\
    \       main.exe --smoke BENCHMARK.json\n\
     workloads: corpus kernels serve-mixed fuzz";
  exit 2

let () =
  let workload = ref None and seed = ref 1997 and seconds = ref 10.0 and trace = ref false in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let find name =
    match List.find_opt (fun (w : W.t) -> String.equal w.W.name name) W.all with
    | Some w -> w
    | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_int (int_arg v);
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_arg v <> 0;
        parse rest
    | "--smoke" :: path :: _ -> smoke path
    | [ "--daemon"; path ] -> exit (W.daemon path)
    | [ "--setup"; name; seed; size ] ->
        let size = if size = size_name W.Smoke then W.Smoke else W.Full in
        Printf.printf "%.17g\n" (setup_batch (find name) ~seed:(int_arg seed) size);
        exit 0
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with None -> usage () | Some name -> find name in
  let outcome =
    if !trace then traced w ~seed:!seed W.Full
    else untraced w ~seed:!seed ~seconds:!seconds W.Full
  in
  let ok, line = result_line outcome in
  print_endline line;
  exit (if ok then 0 else 1)
