(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations DESIGN.md calls out.

     dune exec bench/main.exe              all experiments
     dune exec bench/main.exe -- table1    Sec. 5.1 / Table 1
     dune exec bench/main.exe -- table2    Table 2
     dune exec bench/main.exe -- fig8      Figure 8 (DEC Alpha)
     dune exec bench/main.exe -- fig9      Figure 9 (HP PA-RISC)
     dune exec bench/main.exe -- ablation-model     UGS vs dependence model
     dune exec bench/main.exe -- ablation-brute     tables vs brute force
     dune exec bench/main.exe -- ablation-prefetch  prefetch-bandwidth sweep
     dune exec bench/main.exe -- ablation-permute   permutation pre-pass
     dune exec bench/main.exe -- ablation-registers register-file sweep
     dune exec bench/main.exe -- corpus    Engine.run_corpus throughput
     dune exec bench/main.exe -- table-build  sweep vs per-cell table builds
     dune exec bench/main.exe -- search    pruned vs exhaustive unroll search
     dune exec bench/main.exe -- serve     daemon load generator, cold vs warm
     dune exec bench/main.exe -- reuse     miss-ratio predictor accuracy/speed
     dune exec bench/main.exe -- speed     Bechamel micro-benchmarks
     dune exec bench/main.exe -- --quick   deterministic smoke subset

   Every experiment that draws a synthetic corpus honours a global
   "--seed S" option (default 1997, the pinned corpus seed).

   Every experiment routes through one [report] record: the text body
   is rendered into a buffer, wall time and per-experiment metrics are
   captured alongside, and the same record feeds both the terminal
   output and the perf-trajectory JSON ("--json", writing a
   schema-versioned BENCH_<n>.json).  "--compare A.json B.json" diffs
   two such files and exits non-zero on a throughput regression beyond
   "--threshold" (default 0.10 = 10%). *)

open Ujam_linalg
open Ujam_core
open Ujam_engine
module Json = Ujam_obs.Json

let schema_version = 1
let bench_generation = 8

(* Generator seed for every synthetic corpus below; --seed overrides.
   The default matches Generator.corpus's own, keeping the pinned
   --quick cram output stable. *)
let seed = ref 1997

(* ------------------------------------------------------------------ *)
(* The report record: one per experiment, feeding text and JSON.       *)

type report = {
  name : string;  (** stable key, used by --compare to pair runs *)
  title : string;  (** section header shown in text mode *)
  wall_s : float;
  items : int;  (** work items processed; throughput = items / wall_s *)
  minor_words : float;  (** words allocated on the minor heap *)
  major_words : float;  (** words allocated directly on the major heap *)
  metrics : (string * float) list;
  body : string;  (** rendered text output *)
}

let throughput r = float_of_int r.items /. Float.max 1e-9 r.wall_s

(* ------------------------------------------------------------------ *)
(* Table 1: input-dependence share of routine dependence graphs.      *)

let table1 ppf =
  Format.fprintf ppf
    "corpus: the 19 suite kernels + synthetic routines, 1187 total (the@.\
     paper's routine count for SPEC92/Perfect/NAS/local)@.@.";
  let synthetic = Ujam_workload.Generator.corpus ~seed:!seed ~count:1168 () in
  let kernel_routines =
    List.map
      (fun (e : Ujam_kernels.Catalogue.entry) ->
        { Ujam_workload.Generator.name = e.Ujam_kernels.Catalogue.name;
          nests = [ e.Ujam_kernels.Catalogue.build ~n:24 () ] })
      Ujam_kernels.Catalogue.all
  in
  let routines = kernel_routines @ synthetic in
  let report = Ujam_workload.Corpus.measure routines in
  Format.fprintf ppf "%a@." Ujam_workload.Corpus.pp report;
  Format.fprintf ppf
    "paper reported: 649/1187 routines with dependences; 84%% of 305,885@.\
     dependences input; mean 55.7%% per routine (stddev 33.6); buckets@.\
     0%%:69  1-32%%:101  33-39%%:65  40-49%%:67  50-59%%:48  60-69%%:46@.\
     70-79%%:48  80-89%%:43  90-100%%:162@.";
  (List.length routines, [])

(* ------------------------------------------------------------------ *)
(* Table 2: the evaluation suite.                                      *)

let table2 ppf =
  Format.fprintf ppf "%a@." Ujam_kernels.Catalogue.pp_table ();
  (List.length Ujam_kernels.Catalogue.all, [])

(* ------------------------------------------------------------------ *)
(* Figures 8 and 9: normalized execution time per loop.                *)

let bar width v =
  (* one '#' per 0.05 of normalized time, capped for display *)
  let n = min width (int_of_float (v /. 0.05)) in
  String.make (max 0 n) '#'

let figure machine ppf =
  let rows =
    List.map
      (fun (e : Ujam_kernels.Catalogue.entry) ->
        let nest = e.Ujam_kernels.Catalogue.build () in
        let baseline = Ujam_sim.Runner.run ~machine nest in
        let normalized cache =
          let r = Driver.optimize ~bound:8 ~cache ~machine nest in
          let sim =
            Ujam_sim.Runner.run ~machine ~plan:r.Driver.plan r.Driver.transformed
          in
          (r.Driver.choice.Search.u, Ujam_sim.Runner.normalized ~baseline sim)
        in
        let u_nc, nocache = normalized false in
        let u_c, cache = normalized true in
        (e.Ujam_kernels.Catalogue.name, u_nc, nocache, u_c, cache))
      Ujam_kernels.Catalogue.all
  in
  Format.fprintf ppf "%-10s %-9s %-8s %-9s %-8s@." "loop" "u(nocache)" "nocache"
    "u(cache)" "cache";
  List.iter
    (fun (name, u_nc, nocache, u_c, cache) ->
      Format.fprintf ppf "%-10s %-9s %-8.3f %-9s %-8.3f@." name
        (Vec.to_string u_nc) nocache (Vec.to_string u_c) cache)
    rows;
  let geomean sel =
    exp
      (List.fold_left (fun acc r -> acc +. log (sel r)) 0.0 rows
      /. float_of_int (List.length rows))
  in
  let gm_nocache = geomean (fun (_, _, v, _, _) -> v) in
  let gm_cache = geomean (fun (_, _, _, _, v) -> v) in
  Format.fprintf ppf
    "@.geometric mean normalized time: nocache %.3f, cache %.3f@." gm_nocache
    gm_cache;
  Format.fprintf ppf
    "@.normalized execution time (1.0 = original; shorter is faster):@.";
  List.iter
    (fun (name, _, nocache, _, cache) ->
      Format.fprintf ppf
        "%-10s original |%s@.%-10s nocache  |%s@.%-10s cache    |%s@.@." name
        (bar 40 1.0) "" (bar 40 nocache) "" (bar 40 cache))
    rows;
  ( List.length rows,
    [ ("geomean_nocache", gm_nocache); ("geomean_cache", gm_cache) ] )

let fig8 ppf = figure Ujam_machine.Presets.alpha ppf
let fig9 ppf = figure Ujam_machine.Presets.hppa ppf

(* ------------------------------------------------------------------ *)
(* Ablation A1: UGS model vs dependence-based model vs brute force.    *)

let time_it f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let choose_with m ctx =
  let module M = (val m : Model.MODEL) in
  (M.analyze ctx).Search.u

let ablation_model ppf =
  let machine = Ujam_machine.Presets.alpha in
  let models = List.filter_map Model.find [ "ugs"; "dep"; "brute" ] in
  Format.fprintf ppf "%-10s %-10s %-10s %-10s %-6s %-18s@." "loop" "u(UGS)"
    "u(dep)" "u(brute)" "agree" "graph edges (in/out)";
  let agree_all = ref true in
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:24 () in
      let d = Ujam_ir.Nest.depth nest in
      (* one shared context: every strategy sees the same safety vector,
         locality ranking, and unroll space *)
      let ctx = Analysis_ctx.create ~bound:4 ~machine nest in
      let us = List.map (fun m -> choose_with m ctx) models in
      let u_ugs, u_dep, u_bf =
        match us with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let with_input, without = Depmodel.graph_cost nest (Vec.zero d) in
      let agree = Vec.equal u_ugs u_dep && Vec.equal u_ugs u_bf in
      if not agree then agree_all := false;
      Format.fprintf ppf "%-10s %-10s %-10s %-10s %-6s %d/%d@."
        e.Ujam_kernels.Catalogue.name (Vec.to_string u_ugs) (Vec.to_string u_dep)
        (Vec.to_string u_bf)
        (if agree then "yes" else "NO")
        with_input without)
    Ujam_kernels.Catalogue.all;
  Format.fprintf ppf
    "@.all models agree: %b (afold holds the one coupled-subscript@." !agree_all;
  Format.fprintf ppf
    "reference, C(I+J-1), where distance vectors are coarser than linear@.\
     algebra — the paper's Sec. 3.5 restriction)@.";
  ( List.length Ujam_kernels.Catalogue.all,
    [ ("agree_all", if !agree_all then 1.0 else 0.0) ] )

(* ------------------------------------------------------------------ *)
(* Ablation A2: cost of the table approach vs brute-force unrolling.   *)

let ablation_brute ppf =
  let machine = Ujam_machine.Presets.alpha in
  Format.fprintf ppf "%-10s %-12s %-12s %-12s %-8s@." "loop" "tables (s)"
    "brute (s)" "depgraph (s)" "speedup";
  let tot_t = ref 0.0 and tot_b = ref 0.0 and tot_d = ref 0.0 in
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:24 () in
      (* one fresh context per kernel: the tables column pays its own
         balance-table build (the ctx is cold when Ugs_tables runs), while
         the baselines reuse the already-ranked unroll space — the paper's
         framing of "analysis the tables save" *)
      let ctx = Analysis_ctx.create ~bound:6 ~machine nest in
      let _, t_tables =
        time_it (fun () -> choose_with (module Model.Ugs_tables) ctx)
      in
      let _, t_brute =
        time_it (fun () -> choose_with (module Model.Brute_force) ctx)
      in
      let _, t_dep =
        time_it (fun () -> choose_with (module Model.Dep_based) ctx)
      in
      tot_t := !tot_t +. t_tables;
      tot_b := !tot_b +. t_brute;
      tot_d := !tot_d +. t_dep;
      Format.fprintf ppf "%-10s %-12.4f %-12.4f %-12.4f %.1fx@."
        e.Ujam_kernels.Catalogue.name t_tables t_brute t_dep
        (t_brute /. Float.max 1e-9 t_tables))
    Ujam_kernels.Catalogue.all;
  Format.fprintf ppf "%-10s %-12.4f %-12.4f %-12.4f %.1fx@." "total" !tot_t
    !tot_b !tot_d
    (!tot_b /. Float.max 1e-9 !tot_t);
  ( List.length Ujam_kernels.Catalogue.all,
    [ ("total_tables_s", !tot_t);
      ("total_brute_s", !tot_b);
      ("total_depgraph_s", !tot_d);
      ("tables_speedup", !tot_b /. Float.max 1e-9 !tot_t) ] )

(* ------------------------------------------------------------------ *)
(* Ablation A3: prefetch bandwidth (Sec. 3.2's pi term).               *)

let ablation_prefetch ppf =
  Format.fprintf ppf "%-10s" "loop";
  let bws = [ 0.0; 0.1; 0.25; 0.5; 1.0 ] in
  List.iter (fun bw -> Format.fprintf ppf " pi=%-9.2f" bw) bws;
  Format.fprintf ppf "@.";
  let loops = [ "dmxpy0"; "mmjki"; "sor"; "jacobi" ] in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build ~n:48 () in
      Format.fprintf ppf "%-10s" name;
      List.iter
        (fun prefetch_bandwidth ->
          let machine = Ujam_machine.Presets.generic ~prefetch_bandwidth () in
          let r = Driver.optimize ~bound:6 ~machine nest in
          Format.fprintf ppf " %-8s b=%.2f"
            (Vec.to_string r.Driver.choice.Search.u)
            r.Driver.choice.Search.balance)
        bws;
      Format.fprintf ppf "@.")
    loops;
  (List.length loops, [])

(* ------------------------------------------------------------------ *)
(* Ablation A4: loop permutation as a pre-pass (Wolf-Maydan-Chen        *)
(* combine permutation with unroll-and-jam; we measure what it adds).  *)

let ablation_permute ppf =
  let machine = Ujam_machine.Presets.alpha in
  Format.fprintf ppf "%-10s %-12s %-10s %-10s %-10s@." "loop" "permutation"
    "ujam" "perm+ujam" "perm cost";
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build () in
      let baseline = Ujam_sim.Runner.run ~machine nest in
      let plain = Driver.optimize ~bound:8 ~machine nest in
      let t_plain =
        Ujam_sim.Runner.normalized ~baseline
          (Ujam_sim.Runner.run ~machine ~plan:plain.Driver.plan
             plain.Driver.transformed)
      in
      let choice, combined = Permute.optimize ~bound:8 ~machine nest in
      let t_comb =
        Ujam_sim.Runner.normalized ~baseline
          (Ujam_sim.Runner.run ~machine ~plan:combined.Driver.plan
             combined.Driver.transformed)
      in
      Format.fprintf ppf "%-10s %-12s %-10.3f %-10.3f %.3f->%.3f@."
        e.Ujam_kernels.Catalogue.name
        (String.concat ";"
           (Array.to_list (Array.map string_of_int choice.Permute.permutation)))
        t_plain t_comb choice.Permute.original_cost choice.Permute.cost)
    Ujam_kernels.Catalogue.all;
  (List.length Ujam_kernels.Catalogue.all, [])

(* ------------------------------------------------------------------ *)
(* Ablation A5: register-file size (the paper's future work on          *)
(* architectures with larger register sets).                            *)

let ablation_registers ppf =
  let regs = [ 8; 16; 32; 64; 128 ] in
  Format.fprintf ppf "%-10s" "loop";
  List.iter (fun r -> Format.fprintf ppf " %-16s" (Printf.sprintf "R=%d" r)) regs;
  Format.fprintf ppf "@.";
  let loops = [ "mmjki"; "mmjik"; "dmxpy0"; "sor"; "gmtry.3"; "afold" ] in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build () in
      Format.fprintf ppf "%-10s" name;
      List.iter
        (fun fp_registers ->
          let machine =
            Ujam_machine.Machine.make ~name:"sweep" ~fp_registers
              ~cache_size:16384 ~cache_line:4 ~miss_penalty:24 ~fp_latency:6 ()
          in
          let baseline = Ujam_sim.Runner.run ~machine nest in
          let r = Driver.optimize ~bound:10 ~machine nest in
          let t =
            Ujam_sim.Runner.normalized ~baseline
              (Ujam_sim.Runner.run ~machine ~plan:r.Driver.plan
                 r.Driver.transformed)
          in
          Format.fprintf ppf " %-8s t=%.3f"
            (Vec.to_string r.Driver.choice.Search.u)
            t)
        regs;
      Format.fprintf ppf "@.")
    loops;
  (List.length loops, [])

(* ------------------------------------------------------------------ *)
(* Engine corpus throughput: the parallel work queue at 1..N domains.  *)

let corpus_throughput ppf =
  let machine = Ujam_machine.Presets.alpha in
  let count = 200 in
  let routines = Ujam_workload.Generator.corpus ~seed:!seed ~count () in
  let reference = ref None in
  let metrics = ref [] in
  List.iter
    (fun domains ->
      (* process-wide memos would let later domain counts ride on the
         first run's answers; clear them so every run pays full price
         and the determinism check stays honest *)
      Engine.memo_clear ();
      Ujam_ir.Canon.memo_clear ();
      let r = Engine.run_corpus ~domains ~bound:4 ~machine routines in
      let rendered = Engine.to_string r in
      let deterministic =
        match !reference with
        | None ->
            reference := Some rendered;
            true
        | Some expect -> String.equal expect rendered
      in
      let rps = float_of_int count /. Float.max 1e-9 r.Engine.elapsed_s in
      metrics :=
        (Printf.sprintf "routines_per_s_d%d" domains, rps) :: !metrics;
      if not deterministic then metrics := ("nondeterministic", 1.0) :: !metrics;
      Format.fprintf ppf
        "domains=%d: %d nests ok, %d failed, wall %.3fs (%.0f routines/s), \
         output identical to 1-domain run: %b@."
        domains r.Engine.ok r.Engine.failed r.Engine.elapsed_s rps deterministic;
      Format.fprintf ppf "  %a@." Engine.pp_timings r)
    [ 1; 2; 4 ];
  (count * 3, List.rev !metrics)

(* ------------------------------------------------------------------ *)
(* --quick: a deterministic smoke subset for cram — no wall-clock       *)
(* numbers, small sizes, fixed seeds.                                   *)

let quick_matrix ppf =
  let machine = Ujam_machine.Presets.alpha in
  Format.fprintf ppf "%-10s" "loop";
  List.iter (fun m -> Format.fprintf ppf " %-10s" (Model.name m)) Model.all;
  Format.fprintf ppf "@.";
  let loops = [ "dmxpy0"; "mmjki"; "sor"; "jacobi" ] in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let ctx = Analysis_ctx.create ~bound:3 ~machine nest in
      Format.fprintf ppf "%-10s" name;
      List.iter
        (fun m -> Format.fprintf ppf " %-10s" (Vec.to_string (choose_with m ctx)))
        Model.all;
      Format.fprintf ppf "@.")
    loops;
  (List.length loops, [])

let quick_corpus ppf =
  let machine = Ujam_machine.Presets.alpha in
  let count = 20 in
  let report =
    Engine.run_corpus ~domains:2 ~bound:3 ~machine
      (Ujam_workload.Generator.corpus ~seed:!seed ~count ())
  in
  Format.fprintf ppf "%a@." Engine.pp report;
  ( count,
    [ ("ok", float_of_int report.Engine.ok);
      ("failed", float_of_int report.Engine.failed) ] )

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment pipeline.   *)

let speed ppf =
  let open Bechamel in
  let machine = Ujam_machine.Presets.alpha in
  let nest = Ujam_kernels.Kernels.mmjki ~n:24 () in
  let d = Ujam_ir.Nest.depth nest in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  let bounds = [| 4; 4; 0 |] in
  let space = Unroll_space.make ~bounds in
  let tests =
    [ Test.make ~name:"table1:corpus-50-routines"
        (Staged.stage (fun () ->
             Ujam_workload.Corpus.measure
               (Ujam_workload.Generator.corpus ~seed:!seed ~count:50 ())));
      Test.make ~name:"table2:catalogue-build"
        (Staged.stage (fun () ->
             List.map
               (fun (e : Ujam_kernels.Catalogue.entry) ->
                 e.Ujam_kernels.Catalogue.build ~n:12 ())
               Ujam_kernels.Catalogue.all));
      Test.make ~name:"fig8:select+transform-mmjki"
        (Staged.stage (fun () -> Driver.optimize ~bound:4 ~machine nest));
      Test.make ~name:"fig8:simulate-mmjki-n24"
        (Staged.stage (fun () -> Ujam_sim.Runner.run ~machine nest));
      Test.make ~name:"core:gts-table-build"
        (Staged.stage (fun () ->
             List.map
               (fun g -> Tables.gts_table space ~localized g)
               (Ujam_reuse.Ugs.of_nest nest)));
      Test.make ~name:"core:memory-table-build"
        (Staged.stage (fun () -> Rrs.memory_table space ~localized nest));
      Test.make ~name:"baseline:bruteforce-search"
        (Staged.stage (fun () -> Bruteforce.best ~cache:true ~machine space nest));
      Test.make ~name:"baseline:depmodel-search"
        (Staged.stage (fun () -> Depmodel.best ~cache:true ~machine space nest)) ]
  in
  let test = Test.make_grouped ~name:"ujam" ~fmt:"%s/%s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw_results = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  let metrics = ref [] in
  Hashtbl.iter
    (fun _measure (by_name : (string, Analyze.OLS.t) Hashtbl.t) ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_name []
        |> List.sort compare
      in
      Format.fprintf ppf "%-40s %s@." "benchmark" "ns/run";
      List.iter
        (fun (name, ols) ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ e ] ->
                metrics := (name, e) :: !metrics;
                Printf.sprintf "%.0f" e
            | Some _ | None -> "n/a"
          in
          Format.fprintf ppf "%-40s %s@." name est)
        rows)
    results;
  (List.length tests, List.rev !metrics)

(* ------------------------------------------------------------------ *)
(* The sweep-engine payoff in isolation: exact group-count tables on a *)
(* depth-3 bound-8 space, built by the O(d*|U|) difference-array       *)
(* sweeps and by the per-cell reference recurrence.  The gate is a     *)
(* >= 10x gap (metric [speedup]); totals must agree.                   *)

let table_build ppf =
  let nest = Ujam_kernels.Kernels.mmjki ~n:16 () in
  let d = Ujam_ir.Nest.depth nest in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  let space = Unroll_space.make ~bounds:[| 8; 8; 0 |] in
  let groups = Ujam_reuse.Ugs.of_nest nest in
  let time reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do f () done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  (* parity first, outside the timed loops: the sweep-built tables and
     the per-cell recurrence must report the same totals everywhere *)
  let sweep_total =
    List.fold_left
      (fun acc g ->
        let gt = Tables.gts_exact_table space ~localized g in
        let gs = Tables.gss_exact_table space ~localized g in
        Unroll_space.fold space acc (fun acc u ->
            acc + Unroll_space.Table.get gt u + Unroll_space.Table.get gs u))
      0 groups
  in
  let percell_total =
    List.fold_left
      (fun acc g ->
        Unroll_space.fold space acc (fun acc u ->
            acc
            + Tables.gts_exact space ~localized g u
            + Tables.gss_exact space ~localized g u))
      0 groups
  in
  let sweep_reps = 50 and percell_reps = 3 in
  let sweep_s =
    time sweep_reps (fun () ->
        List.iter
          (fun g ->
            ignore (Tables.gts_exact_table space ~localized g);
            ignore (Tables.gss_exact_table space ~localized g))
          groups)
  in
  let percell_s =
    time percell_reps (fun () ->
        List.iter
          (fun g ->
            Unroll_space.iter space (fun u ->
                ignore (Tables.gts_exact space ~localized g u);
                ignore (Tables.gss_exact space ~localized g u)))
          groups)
  in
  let speedup = percell_s /. Float.max 1e-9 sweep_s in
  Format.fprintf ppf "space 9x9x1 (%d cells), %d UGS groups@."
    (Unroll_space.card space) (List.length groups);
  Format.fprintf ppf "sweep    %.6fs/build (totals %d, %d reps)@." sweep_s
    sweep_total sweep_reps;
  Format.fprintf ppf "per-cell %.6fs/build (totals %d, %d reps)@." percell_s
    percell_total percell_reps;
  Format.fprintf ppf "agreement: %b, speedup %.1fx@."
    (sweep_total = percell_total) speedup;
  ( sweep_reps + percell_reps,
    [ ("sweep_s", sweep_s); ("percell_s", percell_s); ("speedup", speedup);
      ("agree", if sweep_total = percell_total then 1.0 else 0.0) ] )

(* Pruned vs exhaustive unroll-vector search over the catalogue at     *)
(* bound 6: identical choices, fewer cells evaluated.                  *)

let search_bench ppf =
  let machine = Ujam_machine.Presets.alpha in
  let ctxs =
    List.map
      (fun (e : Ujam_kernels.Catalogue.entry) ->
        let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
        ( e.Ujam_kernels.Catalogue.name,
          Analysis_ctx.create ~bound:6 ~machine nest ))
      Ujam_kernels.Catalogue.all
  in
  (* warm the balance tables so the loop times the search alone *)
  List.iter (fun (_, ctx) -> ignore (Analysis_ctx.balance ctx)) ctxs;
  let agree =
    List.for_all
      (fun (_, ctx) ->
        let b = Analysis_ctx.balance ctx in
        Search.best ~prune:true ~cache:true b
        = Search.best ~prune:false ~cache:true b)
      ctxs
  in
  let reps = 30 in
  let time prune =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      List.iter
        (fun (_, ctx) ->
          ignore (Search.best ~prune ~cache:true (Analysis_ctx.balance ctx)))
        ctxs
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let pruned_s = time true in
  let full_s = time false in
  let speedup = full_s /. Float.max 1e-9 pruned_s in
  Format.fprintf ppf "%d kernels, bound 6, %d reps@." (List.length ctxs) reps;
  Format.fprintf ppf "pruned     %.6fs/sweep@." pruned_s;
  Format.fprintf ppf "exhaustive %.6fs/sweep@." full_s;
  Format.fprintf ppf "choices identical: %b, speedup %.2fx@." agree speedup;
  ( reps * 2,
    [ ("pruned_s", pruned_s); ("full_s", full_s); ("speedup", speedup);
      ("agree", if agree then 1.0 else 0.0) ] )

(* ------------------------------------------------------------------ *)
(* Serve load generator: N in-process client domains against a live    *)
(* daemon on a temp socket.  Phase 1 sends all-distinct requests       *)
(* (unique problem sizes — every one a cache miss); phase 2 replays    *)
(* the identical set, so a healthy cache answers it without touching   *)
(* the analysis pipeline.  The gate metric is [warm_over_cold] >= 2.   *)

let serve_bench ppf =
  let open Ujam_serve in
  let path = Filename.temp_file "ujam_bench_serve" ".sock" in
  Sys.remove path;
  let cfg =
    { (Serve.default_config ()) with Serve.domains = 2; Serve.quiet = true }
  in
  let server = Domain.spawn (fun () -> Serve.run ~listen:path cfg) in
  let n_clients = 4 and per_client = 24 in
  let kernels =
    [| "mmjik"; "mmjki"; "jacobi"; "sor"; "afold"; "shal"; "dmxpy0"; "dmxpy1" |]
  in
  let request ci i =
    let k = kernels.((ci + i) mod Array.length kernels) in
    (* a unique problem size per (client, index) keeps phase 1 all-miss *)
    let n = 8 + (ci * per_client) + i in
    Json.Obj
      [ ("id", Json.Int i);
        ("method", Json.Str "optimize");
        ("params", Json.Obj [ ("kernel", Json.Str k); ("n", Json.Int n) ]) ]
  in
  let phase () =
    let t0 = Unix.gettimeofday () in
    let workers =
      Array.init n_clients (fun ci ->
          Domain.spawn (fun () ->
              let c = Serve.Client.connect path in
              let lats = Array.make per_client 0.0 in
              for i = 0 to per_client - 1 do
                let t = Unix.gettimeofday () in
                ignore (Serve.Client.request c (request ci i));
                lats.(i) <- Unix.gettimeofday () -. t
              done;
              Serve.Client.close c;
              lats))
    in
    let lats = Array.concat (Array.to_list (Array.map Domain.join workers)) in
    let wall = Unix.gettimeofday () -. t0 in
    (wall, lats)
  in
  let cold_wall, cold_lats = phase () in
  let warm_wall, warm_lats = phase () in
  let shutdown = Serve.Client.connect path in
  ignore
    (Serve.Client.request shutdown
       (Json.Obj [ ("id", Json.Str "bye"); ("method", Json.Str "shutdown") ]));
  Serve.Client.close shutdown;
  let summary = Domain.join server in
  let total = n_clients * per_client in
  let rps wall = float_of_int total /. Float.max 1e-9 wall in
  let p99 lats =
    let s = Array.copy lats in
    Array.sort compare s;
    let i = min (Array.length s - 1) (int_of_float (ceil (0.99 *. float_of_int (Array.length s))) - 1) in
    1000.0 *. s.(max 0 i)
  in
  let hit_rate =
    float_of_int summary.Serve.hits
    /. Float.max 1.0 (float_of_int (summary.Serve.hits + summary.Serve.misses))
  in
  let warm_over_cold = rps warm_wall /. Float.max 1e-9 (rps cold_wall) in
  Format.fprintf ppf
    "%d clients x %d requests per phase, %d server domains, cache %d entries@."
    n_clients per_client cfg.Serve.domains cfg.Serve.cache_size;
  Format.fprintf ppf "cold (all distinct): %.3fs  %.0f req/s  p99 %.2f ms@."
    cold_wall (rps cold_wall) (p99 cold_lats);
  Format.fprintf ppf "warm (replayed):     %.3fs  %.0f req/s  p99 %.2f ms@."
    warm_wall (rps warm_wall) (p99 warm_lats);
  Format.fprintf ppf
    "warm/cold throughput %.1fx; cache hit rate %.2f (%d hits, %d misses, %d evictions)@."
    warm_over_cold hit_rate summary.Serve.hits summary.Serve.misses
    summary.Serve.evictions;
  ( 2 * total,
    [ ("cold_rps", rps cold_wall);
      ("warm_rps", rps warm_wall);
      ("warm_over_cold", warm_over_cold);
      ("hit_rate", hit_rate);
      ("p99_cold_ms", p99 cold_lats);
      ("p99_warm_ms", p99 warm_lats) ] )

(* ------------------------------------------------------------------ *)
(* Native ground truth: emit, compile, and run four kernels through the
   host OCaml toolchain in one program; measure the real speedup of the
   engine-chosen unroll vector over (1,...,1) and validate every
   variant's checksums against the reference interpreter.  Gated behind
   an explicit "native" / "--native" request so the default trajectory
   (and the @bench-compare gate) never depends on a toolchain being
   present; without one the experiment degrades to a skip line. *)

let native_bench ppf =
  match Ujam_native.Toolchain.find () with
  | Error msg ->
      Format.fprintf ppf "native: skipped -- %s@." msg;
      (0, [ ("available", 0.0) ])
  | Ok tc -> (
      let machine = Ujam_machine.Presets.alpha in
      let kernels = [ "mmjki"; "dmxpy0"; "jacobi"; "sor" ] in
      let cases =
        List.map
          (fun k ->
            let e = Option.get (Ujam_kernels.Catalogue.find k) in
            let nest = e.Ujam_kernels.Catalogue.build ~n:48 () in
            let r = Driver.optimize ~bound:8 ~cache:true ~machine nest in
            let u =
              Ujam_ir.Unroll.clamp_divisible nest r.Driver.choice.Search.u
            in
            let spec =
              { Ujam_native.Emit.uname = k;
                seed = !seed;
                repeats = 5;
                variants =
                  [ { Ujam_native.Emit.vname = "orig"; nest };
                    { Ujam_native.Emit.vname = "unrolled";
                      nest = Ujam_ir.Unroll.unroll_and_jam nest u } ] }
            in
            (k, u, spec))
          kernels
      in
      let specs = List.map (fun (_, _, s) -> s) cases in
      match Ujam_native.Native.run_units tc specs with
      | Error msg ->
          Format.fprintf ppf "native: FAILED -- %s@." msg;
          (0, [ ("available", 1.0); ("failed", 1.0) ])
      | Ok results ->
          Format.fprintf ppf "toolchain: %s@.@."
            (Ujam_native.Toolchain.description tc);
          Format.fprintf ppf "%-8s %-10s %-12s %-12s %-8s %s@." "kernel" "u"
            "orig s/run" "unrolled" "speedup" "equiv";
          let metrics =
            List.map2
              (fun (k, u, spec) res ->
                let sec v =
                  match
                    List.find_opt
                      (fun (o : Ujam_native.Native.outcome) ->
                        String.equal o.Ujam_native.Native.vname v)
                      res.Ujam_native.Native.outcomes
                  with
                  | Some o -> o.Ujam_native.Native.seconds
                  | None -> Float.nan
                in
                let t0 = sec "orig" and t1 = sec "unrolled" in
                let speedup =
                  if t1 > 0.0 && Float.is_finite t0 then t0 /. t1 else 1.0
                in
                let eqs = Ujam_native.Native.equivalences spec res in
                let equiv =
                  List.for_all
                    (fun (e : Ujam_native.Native.equivalence) ->
                      e.Ujam_native.Native.diffs = [])
                    eqs
                in
                Format.fprintf ppf "%-8s %-10s %-12.3e %-12.3e %-8.2f %s@." k
                  (Vec.to_string u) t0 t1 speedup
                  (if equiv then "ok" else "FAILED");
                [ ("speedup_" ^ k, speedup);
                  ("equiv_" ^ k, if equiv then 1.0 else 0.0) ])
              cases results
          in
          (2 * List.length cases, ("available", 1.0) :: List.concat metrics))

(* ------------------------------------------------------------------ *)
(* The static miss-ratio predictor: accuracy against the hierarchy     *)
(* simulator on a seeded corpus, and the closed form's speed advantage *)
(* over full trace replay.                                             *)

let reuse_bench ppf =
  let count = 120 in
  let routines = Ujam_workload.Generator.corpus ~seed:!seed ~count () in
  let nests =
    List.concat_map (fun r -> r.Ujam_workload.Generator.nests) routines
  in
  let metrics = ref [] in
  let items = ref 0 in
  Format.fprintf ppf "%-22s %-8s %-10s %-10s %-10s %-12s %s@." "machine"
    "levels" "mean|err|" "max|err|" "flagged" "predict" "replay";
  List.iter
    (fun (machine : Ujam_machine.Machine.t) ->
      let levels = ref 0
      and flagged = ref 0
      and err_sum = ref 0.0
      and err_max = ref 0.0
      and t_predict = ref 0.0
      and t_replay = ref 0.0
      and compared = ref 0 in
      List.iter
        (fun nest ->
          match Ujam_ir.Nest.iterations nest with
          | None -> ()
          | Some iters ->
              let accesses =
                iters * List.length (Ujam_ir.Site.of_nest nest)
              in
              if accesses > 0 && accesses <= 200_000 then (
                let t0 = Unix.gettimeofday () in
                let report = Ujam_analysis.Cachecheck.run ~machine nest in
                t_predict := !t_predict +. (Unix.gettimeofday () -. t0);
                match report with
                | None -> ()
                | Some t ->
                    let t0 = Unix.gettimeofday () in
                    let stats = Ujam_sim.Runner.run_levels ~machine nest in
                    t_replay := !t_replay +. (Unix.gettimeofday () -. t0);
                    let out = Ujam_oracle.Cachepred.check ~machine nest in
                    levels := !levels + out.Ujam_oracle.Cachepred.levels_checked;
                    flagged :=
                      !flagged
                      + List.length out.Ujam_oracle.Cachepred.mismatches;
                    incr compared;
                    List.iter2
                      (fun (_, _, p, _) (_, acc, miss) ->
                        let m = float_of_int miss /. float_of_int acc in
                        let e = Float.abs (p -. m) in
                        err_sum := !err_sum +. e;
                        err_max := Float.max !err_max e)
                      (Ujam_analysis.Cachecheck.predicted_ratios t)
                      stats))
        nests;
      items := !items + !levels;
      let n_lv = float_of_int (List.length (Ujam_machine.Machine.effective_levels machine)) in
      let per ns = ns /. Float.max 1.0 (float_of_int !compared) *. 1e6 in
      let mean =
        !err_sum /. Float.max 1.0 (float_of_int !compared *. n_lv)
      in
      Format.fprintf ppf "%-22s %-8d %-10.4f %-10.4f %-10d %-12s %s@."
        machine.Ujam_machine.Machine.name !levels mean !err_max !flagged
        (Printf.sprintf "%.0fus/nest" (per !t_predict))
        (Printf.sprintf "%.0fus/nest" (per !t_replay));
      let key suffix = machine.Ujam_machine.Machine.name ^ "_" ^ suffix in
      metrics :=
        [ (key "levels", float_of_int !levels);
          (key "mean_abs_err", mean);
          (key "max_abs_err", !err_max);
          (key "flagged", float_of_int !flagged);
          (key "predict_us_per_nest", per !t_predict);
          (key "replay_us_per_nest", per !t_replay) ]
        @ !metrics)
    Ujam_machine.Presets.[ alpha_mem; hppa_mem ];
  (!items, List.rev !metrics)

(* ------------------------------------------------------------------ *)
(* Experiment registry, runner, and JSON trajectory.                   *)

let experiments =
  [ ("table1", "Table 1 — percentage of input dependences (Sec. 5.1)", table1);
    ("table2", "Table 2 — description of test loops", table2);
    ("fig8", "Figure 8 — performance of test loops on DEC Alpha", fig8);
    ("fig9", "Figure 9 — performance of test loops on HP PA-RISC", fig9);
    ( "ablation-model",
      "Ablation A1 — UGS tables vs dependence-based model (Sec. 5.2)",
      ablation_model );
    ( "ablation-brute",
      "Ablation A2 — analysis cost: tables vs brute force (Sec. 5.3)",
      ablation_brute );
    ( "ablation-prefetch",
      "Ablation A3 — prefetch-issue bandwidth sweep",
      ablation_prefetch );
    ( "ablation-permute",
      "Ablation A4 — permutation pre-pass (Wolf–Maydan–Chen setting)",
      ablation_permute );
    ( "ablation-registers",
      "Ablation A5 — register-file size sweep (future work, Sec. 6)",
      ablation_registers );
    ( "corpus",
      "Engine.run_corpus throughput (synthetic corpus, bound 4)",
      corpus_throughput );
    ( "table-build",
      "Sweep-built exact tables vs per-cell reference (bound-8 space)",
      table_build );
    ( "search",
      "Pruned vs exhaustive unroll search (catalogue, bound 6)",
      search_bench );
    ( "serve",
      "Serve daemon load generator (4 clients, cold vs warm cache)",
      serve_bench );
    ( "native",
      "Native ground truth — compiled-kernel speedup of the chosen unroll",
      native_bench );
    ( "reuse",
      "Static miss-ratio predictor — accuracy and speed vs. trace replay",
      reuse_bench );
    ( "quick-matrix",
      "Quick smoke — strategy matrix (shared context per kernel)",
      quick_matrix );
    ( "quick-corpus",
      "Quick smoke — engine corpus (20 routines, 2 domains)",
      quick_corpus );
    ("speed", "Bechamel micro-benchmarks", speed) ]

let all_names =
  [ "table1"; "table2"; "fig8"; "fig9"; "ablation-model"; "ablation-brute";
    "ablation-prefetch"; "ablation-permute"; "ablation-registers"; "corpus";
    "table-build"; "search"; "serve"; "reuse"; "speed" ]

let run_experiment name =
  let _, title, f =
    List.find (fun (n, _, _) -> String.equal n name) experiments
  in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let items, metrics = f ppf in
  Format.pp_print_flush ppf ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  (* major_words includes promotions; subtracting them leaves direct
     major allocations, so minor + major here never double-counts *)
  { name;
    title;
    wall_s;
    items;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words =
      g1.Gc.major_words -. g0.Gc.major_words
      -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    metrics;
    body = Buffer.contents buf }

let section title =
  Format.printf "@.=============================================================@.";
  Format.printf "%s@." title;
  Format.printf "=============================================================@."

let print_report r =
  section r.title;
  print_string r.body

let report_to_json r =
  Json.Obj
    [ ("name", Json.Str r.name);
      ("wall_s", Json.Float r.wall_s);
      ("items", Json.Int r.items);
      ("throughput", Json.Float (throughput r));
      ("minor_words", Json.Float r.minor_words);
      ("major_words", Json.Float r.major_words);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics))
    ]

let trajectory_to_json reports =
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("bench", Json.Int bench_generation);
      ("seed", Json.Int !seed);
      ("experiments", Json.List (List.map report_to_json reports)) ]

(* ------------------------------------------------------------------ *)
(* --compare: the regression gate over two trajectory files.           *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_trajectory path =
  let content =
    try read_file path
    with Sys_error e ->
      Format.eprintf "compare: cannot read %s: %s@." path e;
      exit 2
  in
  match Json.of_string content with
  | Error e ->
      Format.eprintf "compare: %s is not valid JSON: %s@." path e;
      exit 2
  | Ok json ->
      (match Json.member "schema_version" json with
      | Some (Json.Int v) when v = schema_version -> ()
      | Some (Json.Int v) ->
          Format.eprintf "compare: %s has schema_version %d, expected %d@." path
            v schema_version;
          exit 2
      | _ ->
          Format.eprintf "compare: %s lacks a schema_version field@." path;
          exit 2);
      (match Json.member "experiments" json with
      | Some (Json.List l) ->
          List.filter_map
            (fun e ->
              match (Json.member "name" e, Json.member "throughput" e) with
              | Some (Json.Str n), Some v ->
                  Option.map
                    (fun f ->
                      (* allocation fields arrived in bench generation 7:
                         older trajectories simply lack them, and the
                         allocation gate skips such pairs *)
                      let words field =
                        Option.bind (Json.member field e) Json.to_float_opt
                      in
                      let alloc =
                        match (words "minor_words", words "major_words") with
                        | Some mi, Some ma -> Some (mi +. ma)
                        | _ -> None
                      in
                      (n, (f, alloc)))
                    (Json.to_float_opt v)
              | _ -> None)
            l
      | _ ->
          Format.eprintf "compare: %s lacks an experiments list@." path;
          exit 2)

let compare_trajectories old_path new_path threshold alloc_threshold =
  let old_t = load_trajectory old_path in
  let new_t = load_trajectory new_path in
  let failed = ref false in
  List.iter
    (fun (name, (old_tp, old_alloc)) ->
      match List.assoc_opt name new_t with
      | None ->
          failed := true;
          Format.printf "%-20s %.1f -> MISSING  REGRESSION@." name old_tp
      | Some (new_tp, new_alloc) ->
          let delta = (new_tp -. old_tp) /. Float.max 1e-9 old_tp in
          let regressed = delta < -.threshold in
          if regressed then failed := true;
          let alloc_note =
            match (old_alloc, new_alloc) with
            | Some ow, Some nw ->
                let adelta = (nw -. ow) /. Float.max 1e-9 ow in
                let aregressed = adelta > alloc_threshold in
                if aregressed then failed := true;
                Printf.sprintf ", alloc %+.1f%% %s" (100.0 *. adelta)
                  (if aregressed then "ALLOC-REGRESSION" else "ok")
            | _ -> ""
          in
          Format.printf "%-20s %.1f -> %.1f items/s (%+.1f%%)  %s%s@." name
            old_tp new_tp (100.0 *. delta)
            (if regressed then "REGRESSION" else "OK")
            alloc_note)
    old_t;
  if !failed then begin
    Format.printf
      "compare: regression beyond thresholds (throughput %.0f%%, alloc %.0f%%)@."
      (100.0 *. threshold)
      (100.0 *. alloc_threshold);
    exit 1
  end
  else
    Format.printf
      "compare: no regression beyond thresholds (throughput %.0f%%, alloc %.0f%%)@."
      (100.0 *. threshold)
      (100.0 *. alloc_threshold)

(* ------------------------------------------------------------------ *)
(* Argument parsing and dispatch.                                      *)

let json_mode = ref false
let native_mode = ref false
let out_file = ref (Printf.sprintf "BENCH_%d.json" bench_generation)
let threshold = ref 0.10

(* Allocation varies less than wall time between runs, but fresh code
   paths legitimately shift it; 25% headroom flags order-of-magnitude
   leaks without tripping on noise. *)
let alloc_threshold = ref 0.25
let compare_files = ref None

let usage () =
  Format.eprintf
    "usage: bench [EXPERIMENT...] [--quick] [--native] [--seed S] [--json] [--out FILE]@.\
    \       bench --compare OLD.json NEW.json [--threshold T] [--alloc-threshold T]@.\
     experiments: table1 table2 fig8 fig9 ablation-model ablation-brute@.\
    \             ablation-prefetch ablation-permute ablation-registers@.\
    \             corpus table-build search serve native speed reuse@.\
    \             quick-matrix quick-corpus all@.\
     `all' excludes `native' (needs a host OCaml toolchain); add it with@.\
    \ --native or by naming it explicitly.@.";
  exit 2

(* Strip global options out of the argument list before dispatching. *)
let rec extract_options = function
  | [] -> []
  | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> seed := s
      | None ->
          Format.eprintf "--seed: expected an integer, got %S@." v;
          exit 2);
      extract_options rest
  | "--json" :: rest ->
      json_mode := true;
      extract_options rest
  | "--native" :: rest ->
      native_mode := true;
      extract_options rest
  | "--out" :: v :: rest ->
      out_file := v;
      extract_options rest
  | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> threshold := t
      | _ ->
          Format.eprintf "--threshold: expected a non-negative float, got %S@." v;
          exit 2);
      extract_options rest
  | "--alloc-threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> alloc_threshold := t
      | _ ->
          Format.eprintf
            "--alloc-threshold: expected a non-negative float, got %S@." v;
          exit 2);
      extract_options rest
  | "--compare" :: a :: b :: rest ->
      compare_files := Some (a, b);
      extract_options rest
  | arg :: rest -> arg :: extract_options rest

let names_of_arg = function
  | "--quick" | "quick" -> [ "quick-matrix"; "quick-corpus" ]
  | "all" -> all_names
  | name when List.exists (fun (n, _, _) -> String.equal n name) experiments ->
      [ name ]
  | other ->
      Format.eprintf "unknown experiment %S@." other;
      usage ()

let () =
  let args =
    match extract_options (Array.to_list Sys.argv) with
    | _ :: args -> args
    | [] -> []
  in
  match !compare_files with
  | Some (a, b) -> compare_trajectories a b !threshold !alloc_threshold
  | None ->
      let names =
        match args with [] -> all_names | args -> List.concat_map names_of_arg args
      in
      let names =
        if !native_mode && not (List.mem "native" names) then
          names @ [ "native" ]
        else names
      in
      let reports = List.map run_experiment names in
      if !json_mode then begin
        let oc = open_out !out_file in
        output_string oc (Json.to_string (trajectory_to_json reports));
        output_string oc "\n";
        close_out oc;
        Format.printf "wrote %s (%d experiments, schema v%d)@." !out_file
          (List.length reports) schema_version
      end
      else List.iter print_report reports
