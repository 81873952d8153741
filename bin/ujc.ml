(* ujc — unroll-and-jam compiler driver.

   Subcommands expose each stage of the pipeline on the kernel suite:
   list/show the kernels, analyze reuse, build the unroll tables,
   optimize (choose unroll amounts and transform), and simulate. *)

open Cmdliner
open Ujam_linalg
open Ujam_core
open Ujam_engine
module Json = Ujam_obs.Json
module Obs = Ujam_obs.Obs
module Native = Ujam_native.Native
module Locality = Ujam_reuse.Locality
module Nest = Ujam_ir.Nest
module Graph = Ujam_depend.Graph
module Interp = Ujam_sim.Interp
module Machine = Ujam_machine.Machine
module Stats = Ujam_depend.Stats
module Catalogue = Ujam_kernels.Catalogue
module Runner = Ujam_sim.Runner
module Emit = Ujam_native.Emit
module Unroll = Ujam_ir.Unroll
module Ugs = Ujam_reuse.Ugs
module Presets = Ujam_machine.Presets

(* Converters over the one options schema ({!Options}): the lookup and
   the range check are the daemon's; only the wording is the CLI's. *)
let options_conv parse check print =
  let message = function
    | Options.Unknown { what; value; known } ->
        `Msg
          (Printf.sprintf "unknown %s %S (%s)" what value
             (String.concat "|" known))
    | Options.Below _ as e -> `Msg (Options.to_string e)
  in
  Arg.conv
    ( (fun s -> Result.bind (parse s) (fun v -> Result.map_error message (check v))),
      print )

let int_conv check = options_conv (Arg.conv_parser Arg.int) check Format.pp_print_int

let machine_conv =
  options_conv Result.ok Options.machine (fun ppf (m : Machine.t) ->
      Format.pp_print_string ppf m.Machine.name)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Presets.alpha
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:
          (Printf.sprintf "Target machine (%s)."
             (String.concat ", " Presets.names)))

let size_arg =
  Arg.(value & opt (some int) None & info [ "n"; "size" ] ~docv:"N" ~doc:"Problem size.")

let bound_arg default =
  Arg.(
    value
    & opt (int_conv Options.bound) default
    & info [ "b"; "bound" ] ~docv:"B" ~doc:"Unroll-space bound per loop.")

let cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Use the all-hits balance model of Carr-Kennedy.")

let level_arg =
  Arg.(
    value
    & opt (some (int_conv Options.level)) None
    & info [ "level" ] ~docv:"K"
        ~doc:"Hierarchy level (1-based).  $(b,optimize) prices the balance at             level K (the ugs-lK model); $(b,lint)/$(b,explain) restrict the             predicted miss profile to level K.")

let model_arg =
  let model_conv =
    options_conv Result.ok Options.model (fun ppf m ->
        Format.pp_print_string ppf (Model.name m))
  in
  Arg.(
    value
    & opt model_conv (module Model.Ugs_tables : Model.MODEL)
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          (Printf.sprintf
             "Selection strategy: %s, or ugs-lK to price the balance at             hierarchy level K."
             (String.concat ", " Model.names)))

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D" ~doc:"Parallel domains for batch runs.")

let seed_arg =
  Arg.(value & opt int 1997 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")

let input_flag =
  Arg.(
    value & flag
    & info [ "no-input" ]
        ~doc:"Exclude input (read-read) dependences, as the UGS model does.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let seq_arg =
  Arg.(
    value & flag
    & info [ "seq" ]
        ~doc:"Search short verified skew/retime prefixes that legalize             fenced unroll space before the unroll search; report the             chosen sequence and why each step was legal.")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Report per-stage analysis timings (graph/tables/search/sim).")

(* The strategy on engine-backed paths: --level K is sugar for --model
   ugs-lK and --no-cache for --model no-cache, in that precedence. *)
let model_term ?(level = Term.const None) () =
  let pick no_cache level model =
    match level with
    | Some k -> Model.at_level k
    | None -> if no_cache then (module Model.No_cache : Model.MODEL) else model
  in
  Term.(const pick $ cache_arg $ level $ model_arg)

let kernel_conv =
  let parse s =
    match Catalogue.find s with
    | Some _ -> Ok s
    | None -> Error (`Msg (Printf.sprintf "unknown kernel %S; see `ujc list'" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let kernel_arg =
  Arg.(
    required
    & pos 0 (some kernel_conv) None
    & info [] ~docv:"KERNEL" ~doc:"Kernel name from Table 2 (see `ujc list').")

(* A usage error ends the command with exit 2, a typed error with exit 1. *)
let usage fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 2) fmt

let fail e =
  Format.eprintf "@[<v>%a@]@." Error.pp e;
  exit 1

(* Every nest the CLI reads comes through the engine's loader. *)
let load ?name source =
  match Load.nest ?name source with Ok nest -> nest | Error e -> fail e

let kernel k n = load (Load.Kernel (k, n))

(* The front door of every command that analyses a nest: refuse a nest
   outside the supported class with its located UJ004/UJ005/UJ031
   diagnostics, then run the command's pipeline under the guard, so an
   invariant exit deeper down is a typed error too. *)
let gated ~stage nest f =
  let routine = Nest.name nest in
  match
    Result.bind (Error.check_supported ~routine nest) (fun () ->
        Error.guard ~stage ~routine (fun () -> f nest))
  with
  | Ok () -> ()
  | Error e -> fail e

let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")

(* The CLI's one call into the paper's pipeline. *)
let optimize ~machine ~bound ~cache nest = Driver.optimize ~bound ~cache ~machine nest

let list_cmd =
  let run () =
    Format.printf "%a@." Catalogue.pp_table ();
    Format.printf "extras: %s@."
      (String.concat ", " (List.map fst Ujam_kernels.Extras.all))
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 19 evaluation loops (Table 2).")
    Term.(const run $ const ())

let show_cmd =
  let run k n = Format.printf "%a@." Nest.pp (kernel k n) in
  Cmd.v (Cmd.info "show" ~doc:"Print a kernel as Fortran-style source.")
    Term.(const run $ kernel_arg $ size_arg)

let analyze_cmd =
  let run k n (machine : Machine.t) json =
    gated ~stage:Error.Graph (kernel k n) (fun nest ->
        let ctx = Analysis_ctx.create ~machine nest in
        let d = Nest.depth nest in
        let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
        let line = machine.Machine.cache_line in
        let vn = Nest.var_name nest in
        let costs = List.map (Locality.ugs_cost ~line ~localized) (Analysis_ctx.ugs ctx) in
        let with_input = List.length (Analysis_ctx.graph_with_input ctx).Graph.edges in
        let without = List.length (Analysis_ctx.graph ctx).Graph.edges in
        let stats = Stats.of_graph (Analysis_ctx.graph_with_input ctx) in
        let ranking = Analysis_ctx.ranked ctx in
        if json then begin
          let stream_name = function
            | Locality.Invariant -> "invariant"
            | Locality.Unit_stride -> "unit-stride"
            | Locality.No_reuse -> "no-reuse"
          in
          let group_json { Locality.ugs; stream; g_t; g_s; accesses; _ } =
            Json.Obj
              [ ("base", Json.Str ugs.Ugs.base);
                ("size", Json.Int (List.length ugs.Ugs.members));
                ("stream", Json.Str (stream_name stream));
                ("g_t", Json.Int g_t);
                ("g_s", Json.Int g_s);
                ("accesses_per_iter", Json.Float accesses) ]
          in
          let rank_json (l, c) =
            Json.Obj
              [ ("level", Json.Int l); ("var", Json.Str (vn l));
                ("accesses_per_iter", Json.Float c) ]
          in
          print_endline
            (Json.to_string
               (Json.Obj
                  [ ("kernel", Json.Str (Nest.name nest));
                    ("machine", Json.Str machine.Machine.name);
                    ("groups", Json.List (List.map group_json costs));
                    ( "dependences",
                      Json.Obj
                        [ ("flow", Json.Int stats.Stats.flow);
                          ("anti", Json.Int stats.Stats.anti);
                          ("output", Json.Int stats.Stats.output);
                          ("input", Json.Int stats.Stats.input);
                          ("edges_with_input", Json.Int with_input);
                          ("edges_without_input", Json.Int without) ] );
                    ("ranking", Json.List (List.map rank_json ranking)) ]))
        end
        else begin
          Format.printf "%a@.@." Nest.pp nest;
          List.iter
            (fun { Locality.ugs; stream; g_t; g_s; accesses; _ } ->
              Format.printf "%a@,  stream: %a, g_T=%d, g_S=%d, accesses/iter=%.3f@."
                (Ugs.pp ~var_name:vn) ugs Locality.pp_stream stream g_t g_s accesses)
            costs;
          Format.printf "@.dependences (with input): %a@." Stats.pp stats;
          Format.printf "dependence graph: %d edges with input, %d without (%.0f%% saved)@."
            with_input without
            (100.0 *. (1.0 -. (float_of_int without /. float_of_int (max 1 with_input))));
          Format.printf "locality ranking (level, accesses/iter): %s@."
            (String.concat ", "
               (List.map (fun (l, c) -> Printf.sprintf "%s:%.3f" (vn l) c) ranking))
        end)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Reuse and dependence analysis of a kernel.")
    Term.(const run $ kernel_arg $ size_arg $ machine_arg $ json_arg)

let print_corpus_report ~json ~timings report =
  if json then print_endline (Json.to_string (Engine.to_json ~timings report))
  else begin
    Format.printf "%a@." Engine.pp report;
    if timings then Format.printf "%a@." Engine.pp_timings report
  end

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Exit 1 if any nest fails analysis (the CI smoke gate).")

let optimize_cmd =
  let kernel_opt_arg =
    Arg.(
      value
      & pos 0 (some kernel_conv) None
      & info [] ~docv:"KERNEL"
          ~doc:"Kernel name from Table 2 (omit with $(b,--all)).")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Optimize every Table-2 kernel through the engine.")
  in
  let native_check_flag =
    Arg.(
      value & flag
      & info [ "native-check" ]
          ~doc:"After optimizing, compile and run the original nest and the               chosen unroll with the host OCaml toolchain: validate both               against the reference interpreter and measure the actual               speedup over (1,...,1).  Exits 2 when no toolchain is on               PATH, 1 when the compiled run diverges from the               interpreter.")
  in
  let run e_opt n machine bound model all domains json timings seq check
      native_check =
    let tc_opt =
      if not native_check then None
      else
        match Ujam_native.Toolchain.find () with
        | Ok tc -> Some tc
        | Error msg -> usage "ujc optimize: --native-check needs a native toolchain: %s" msg
    in
    if native_check && json then usage "ujc optimize: --native-check has no --json form yet";
    let run_native_check tc r =
      match Native.check_choice tc r with
      | Error err ->
          Format.eprintf "native check: %a@." Error.pp err;
          exit 1
      | Ok c ->
          Format.printf "native check: u = %a%s %s (max rel err %.3g)@." Vec.pp
            c.Native.u
            (if c.Native.clamped then " (clamped to divisible)" else "")
            (if c.Native.equivalent then "matches the interpreter"
             else "DIVERGES from the interpreter")
            c.Native.max_rel_err;
          Format.printf
            "native timing: original %.3e s, transformed %.3e s, measured \
             speedup %.2fx@."
            c.Native.seconds_original c.Native.seconds_transformed
            c.Native.measured_speedup;
          if c.Native.measured_speedup < 1.0 then
            Format.printf
              "native timing: warning: chosen vector did not beat (1,...,1) \
               on this host@.";
          if not c.Native.equivalent then exit 1
    in
    if all then begin
      if native_check then usage "ujc optimize: --native-check works on a single kernel, not --all";
      let report =
        Engine.run_corpus ~domains ~bound ~model ~seq ~machine
          (Engine.routines_of_catalogue ?n ())
      in
      print_corpus_report ~json ~timings report;
      if check && report.Engine.failed > 0 then exit 1
    end
    else
      match e_opt with
      | None -> usage "ujc optimize: missing KERNEL argument (or pass --all)"
      | Some k ->
          gated ~stage:Error.Search (kernel k n) (fun nest ->
              let mname = Model.name model in
              if json then
                let outcome =
                  Engine.analyze ~bound ~model ~seq ~machine ~routine:k nest
                in
                print_endline
                  (Json.to_string
                     (Json.Obj
                        [ ("kernel", Json.Str k);
                          ("machine", Json.Str machine.Machine.name);
                          ("result", Engine.nest_outcome_to_json outcome) ]))
              else
                match mname with
                | ("ugs" | "no-cache") when not seq ->
                    let r = optimize ~machine ~bound ~cache:(mname = "ugs") nest in
                    Format.printf "%a@.@." Driver.pp r;
                    Format.printf "--- transformed ---@.%a@.@." Nest.pp
                      r.Driver.transformed;
                    Format.printf "--- after scalar replacement ---@.%a@."
                      Nest.pp
                      (Scalar_replace.apply r.Driver.transformed r.Driver.plan);
                    Option.iter (fun tc -> run_native_check tc r) tc_opt
                | _ ->
                    if native_check then
                      usage
                        "ujc optimize: --native-check needs the ugs or no-cache model \
                         without --seq";
                    let outcome =
                      Engine.analyze ~bound ~model ~seq ~machine ~routine:k nest
                    in
                    Format.printf "%a@." Engine.pp_nest_outcome outcome)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Choose unroll amounts, transform, and scalar-replace a kernel              (or batch-optimize the whole catalogue with $(b,--all)).")
    Term.(const run $ kernel_opt_arg $ size_arg $ machine_arg $ bound_arg 8
          $ model_term ~level:level_arg () $ all_flag $ domains_arg $ json_arg
          $ timings_arg $ seq_arg $ check_arg $ native_check_flag)

let simulate_cmd =
  let run k n machine bound no_cache =
    gated ~stage:Error.Sim (kernel k n) (fun nest ->
        let r = optimize ~machine ~bound ~cache:(not no_cache) nest in
        let s0 = Runner.run ~machine nest in
        let s1 =
          Runner.run ~machine ~plan:r.Driver.plan r.Driver.transformed
        in
        Format.printf "machine: %a@." Machine.pp machine;
        Format.printf "original:    %a@." Runner.pp s0;
        Format.printf "transformed: %a (u = %a)@." Runner.pp s1 Vec.pp
          r.Driver.choice.Search.u;
        Format.printf "normalized execution time: %.3f@."
          (Runner.normalized ~baseline:s0 s1))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a kernel before and after optimization.")
    Term.(const run $ kernel_arg $ size_arg $ machine_arg $ bound_arg 8 $ cache_arg)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Loop nest in the Fortran-style syntax (see `ujc show').")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A loop-nest file when [s] names one, else a kernel by name; an
   unknown name is a usage error. *)
let resolve_target s n =
  if Sys.file_exists s && not (Sys.is_directory s) then
    match read_file s with
    | text ->
        Load.nest ~name:(Filename.remove_extension (Filename.basename s)) (Load.Inline text)
    | exception Sys_error msg -> usage "ujc: %s" msg
  else if Option.is_some (Catalogue.find s) then Load.nest (Load.Kernel (s, n))
  else usage "ujc: unknown kernel or file %S; see `ujc list'" s

let require_target s n =
  match resolve_target s n with Ok nest -> nest | Error e -> fail e

(* The --help note of the gated commands that read a loop-nest file. *)
let refuses doc =
  doc
  ^ "  A nest outside the supported class (a non-unit step, a subscript     coefficient beyond 2, a subscript constant or loop bound beyond     2^20) is refused: its located UJ004/UJ005/UJ031 errors print and     the exit status is 1."

let target_req =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TARGET" ~doc:"Kernel name from Table 2 or a loop-nest file.")

let tables_cmd =
  let run target n bound =
    gated ~stage:Error.Tables (require_target target n) (fun nest ->
        let d = Nest.depth nest in
        let bounds = Array.make d bound in
        bounds.(d - 1) <- 0;
        (* The tables are machine-independent; any preset prepares them. *)
        let b =
          Balance.prepare ~machine:Presets.alpha
            (Unroll_space.make ~bounds) nest
        in
        Format.printf "u          V_M  R    g_T  g_S@.";
        Unroll_space.iter (Balance.space b) (fun u ->
            let gt, gs =
              List.fold_left
                (fun (gt, gs) (_, t, s) -> (gt + t, gs + s))
                (0, 0) (Balance.group_counts b u)
            in
            Format.printf "%-10s %-4d %-4d %-4d %-4d@." (Vec.to_string u)
              (Balance.memory_ops b u) (Balance.registers b u) gt gs))
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:(refuses "Print the precomputed unroll tables of a kernel or loop-nest file."))
    Term.(const run $ target_req $ size_arg $ bound_arg 8)

let compile_cmd =
  let run path machine bound no_cache permute =
    gated ~stage:Error.Search (require_target path None) (fun nest ->
        let nest, perm_note =
          if permute then begin
            let c = Permute.best_legal ~machine nest in
            ( c.Permute.permuted,
              Printf.sprintf "permutation [%s], Eq.1 cost %.3f -> %.3f"
                (String.concat ";"
                   (Array.to_list (Array.map string_of_int c.Permute.permutation)))
                c.Permute.original_cost c.Permute.cost )
          end
          else (nest, "")
        in
        let r = optimize ~machine ~bound ~cache:(not no_cache) nest in
        if perm_note <> "" then Format.printf "%s@." perm_note;
        Format.printf "%a@.@." Driver.pp r;
        Format.printf "%a@." Nest.pp
          (Scalar_replace.apply r.Driver.transformed r.Driver.plan))
  in
  let permute_flag =
    Arg.(value & flag & info [ "permute" ] ~doc:"Run the loop-permutation pre-pass.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         (refuses
            "Optimize a loop nest read from a file (parse, permute,              unroll-and-jam, scalar replace)."))
    Term.(const run $ file_arg $ machine_arg $ bound_arg 8 $ cache_arg
          $ permute_flag)

let graph_cmd =
  let run k n no_input =
    gated ~stage:Error.Graph (kernel k n) (fun nest ->
        let g = Graph.build ~include_input:(not no_input) nest in
        Format.printf "%a@." Graph.pp g;
        Format.printf "%a@." Stats.pp (Stats.of_graph g))
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Print a kernel's dependence graph and its statistics (Graphviz              output: $(b,ujc dot)).")
    Term.(const run $ kernel_arg $ size_arg $ input_flag)

let verify_cmd =
  let run k n machine bound no_cache =
    gated ~stage:Error.Transform (kernel k n) (fun nest ->
        let r = optimize ~machine ~bound ~cache:(not no_cache) nest in
        (* Clamp the chosen unroll amounts to factors dividing the trip
           counts: the remainder (cleanup) loop is outside the IR's
           perfect nests, so verification requires exact coverage. *)
        let u = Unroll.clamp_divisible nest r.Driver.choice.Search.u in
        let t = Unroll.unroll_and_jam nest u in
        let plan = Scalar_replace.plan t in
        let body = Scalar_replace.apply t plan in
        let pre = Scalar_replace.preheader t plan in
        let reference = Interp.run nest in
        let transformed = Interp.run ~preheader:(fun _ -> pre) body in
        let ok = Interp.equal reference transformed in
        Format.printf
          "%s: search chose u = %a, verified at u = %a@.interpreted checksums: original %.9f, transformed %.9f@.locations written: %d vs %d@.semantics %s@."
          (Nest.name nest) Vec.pp r.Driver.choice.Search.u Vec.pp u
          (Interp.checksum reference)
          (Interp.checksum transformed)
          (Interp.written reference)
          (Interp.written transformed)
          (if ok then "PRESERVED" else "BROKEN");
        if not ok then exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Interpret a kernel before and after the full pipeline              (unroll-and-jam, scalar replacement, chain priming) and              compare the results element by element.")
    Term.(const run $ kernel_arg $ size_arg $ machine_arg $ bound_arg 8 $ cache_arg)

let corpus_cmd =
  let count_arg =
    Arg.(value & opt int 1187 & info [ "count" ] ~docv:"N" ~doc:"Corpus size.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print input-dependence statistics (Table 1) instead of               running the optimization pipeline.")
  in
  let recurrent_flag =
    Arg.(
      value & flag
      & info [ "recurrent" ]
          ~doc:"Generate fence-binding recurrence nests (anti-diagonal and               cross-statement) instead of the corpus mix; combine with               $(b,--seq) to exercise the sequence legalizer.")
  in
  let run count seed machine bound model domains json timings stats seq
      recurrent check =
    let count = max 0 count in
    let routines =
      Ujam_workload.Generator.corpus ~seed ~recurrent ~count ()
    in
    if stats then
      Format.printf "%a@." Ujam_workload.Corpus.pp
        (Ujam_workload.Corpus.measure routines)
    else begin
      let report =
        Engine.run_corpus ~domains ~bound ~model ~seq ~machine routines
      in
      print_corpus_report ~json ~timings report;
      if check && report.Engine.failed > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Run the selection pipeline over a synthetic corpus              (per-routine reports; $(b,--stats) for the Table-1              input-dependence statistics).")
    Term.(const run $ count_arg $ seed_arg $ machine_arg $ bound_arg 4
          $ model_term () $ domains_arg $ json_arg $ timings_arg $ stats_flag
          $ seq_arg $ recurrent_flag $ check_arg)

let fuzz_cmd =
  let open Ujam_oracle in
  let n_arg =
    Arg.(
      value & opt int 200
      & info [ "n"; "nests" ] ~docv:"N" ~doc:"Number of generated nests to check.")
  in
  let max_depth_arg =
    Arg.(
      value & opt int 3
      & info [ "max-depth" ] ~docv:"D"
          ~doc:"Skip generated nests deeper than $(docv) loops.")
  in
  let deep_flag =
    Arg.(
      value & flag
      & info [ "deep-space" ]
          ~doc:"Stress the sweep engine on deep spaces: admit 4-deep               generated nests and raise the unroll bound to at least 8               and the depth limit to at least 4.")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Shrink each failing nest to a minimal reproducer (drop               loops, drop references, shrink coefficients) and print it               as a rebuildable OCaml snippet.")
  in
  let layers_arg =
    let names = List.map Fuzz.layer_name Fuzz.registry in
    let layer_conv =
      let parse s =
        let name =
          match String.lowercase_ascii s with "cross" -> "cross-model" | n -> n
        in
        match List.find_opt (fun l -> Fuzz.layer_name l = name) Fuzz.registry with
        | Some l -> Ok l
        | None ->
            Error
              (`Msg
                (Printf.sprintf "unknown layer %S (%s)" s (String.concat "|" names)))
      in
      Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Fuzz.layer_name l))
    in
    Arg.(
      value
      & opt (list layer_conv) Fuzz.all_layers
      & info [ "layers" ] ~docv:"LAYERS"
          ~doc:
            (Printf.sprintf "Comma-separated oracle layers to run (%s)."
               (String.concat ", " names)))
  in
  let native_flag =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:"Add the native ground-truth layer: compile each nest and a               sample of its legal unrolls to machine code and validate               checksums against the interpreter.  Skipped (and counted as               $(i,native_skipped)) when no OCaml toolchain is on PATH.")
  in
  let recurrent_flag =
    Arg.(
      value & flag
      & info [ "recurrent" ]
          ~doc:"Draw fence-binding recurrence nests (anti-diagonal and               cross-statement) instead of the corpus mix.")
  in
  let dedup_flag =
    Arg.(
      value & flag
      & info [ "dedup" ]
          ~doc:"Skip generated nests whose canonical digest repeats an               earlier draw, so every checked nest is structurally               distinct; skipped draws do not consume the $(b,-n) budget.")
  in
  let run n seed max_depth bound machine domains layers native deep shrink
      recurrent dedup json =
    let layers =
      if native && not (List.exists (fun l -> Fuzz.layer_name l = "native") layers)
      then layers @ [ Fuzz.native () ]
      else layers
    in
    let cfg =
      { (Fuzz.default_config ~machine ()) with
        Fuzz.n = max 0 n;
        seed;
        max_depth = (if deep then max max_depth 4 else max_depth);
        bound = (if deep then max bound 8 else bound);
        domains;
        layers;
        deep;
        shrink;
        recurrent;
        dedup }
    in
    let report = Fuzz.run cfg in
    if json then print_endline (Json.to_string (Fuzz.to_json report))
    else Format.printf "%a" Fuzz.pp report;
    if not (Fuzz.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential oracle: fuzz the UGS tables against materialized              unrolls, the cache simulator, and the other selection              strategies; shrink any failure to a minimal reproducer.")
    Term.(const run $ n_arg $ seed_arg $ max_depth_arg $ bound_arg 4
          $ machine_arg $ domains_arg $ layers_arg $ native_flag $ deep_flag
          $ shrink_flag $ recurrent_flag $ dedup_flag $ json_arg)

(* ------------------------------------------------------------------ *)
(* Analysis subcommands: lint / explain / dot take either a kernel name
   or a loop-nest file in the Fortran-style syntax. *)

let target_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"TARGET"
        ~doc:"Kernel name from Table 2 or a loop-nest file (see `ujc show').")

(* ------------------------------------------------------------------ *)
(* ujc emit: lower a nest (and optionally its engine-chosen unroll) to
   a standalone OCaml program over flat float arrays — the ground-truth
   column.  Emission itself needs no toolchain; --run does, and a
   missing toolchain is a usage error (exit 2), never an exception. *)

let emit_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the program to $(docv) instead of stdout.")
  in
  let run_flag =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:"Compile the emitted program with the host OCaml toolchain,              execute it, and compare every variant's checksums against              the reference interpreter (exit 1 on divergence).")
  in
  let transform_flag =
    Arg.(
      value & flag
      & info [ "transform" ]
          ~doc:"Also emit the engine-chosen unroll-and-jam variant, clamped              to trip-dividing factors.")
  in
  let repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"R"
          ~doc:"Timed repetitions per variant after the semantics run.")
  in
  let emit_seed_arg =
    Arg.(
      value & opt int Interp.default_seed
      & info [ "seed" ] ~docv:"S" ~doc:"Initial-store seed.")
  in
  let run target n machine bound no_cache out run_it transform repeats seed =
    gated ~stage:Error.Native (require_target target n) (fun nest ->
        let variants =
          { Emit.vname = "orig"; nest }
          ::
          (if transform then begin
             let r = optimize ~machine ~bound ~cache:(not no_cache) nest in
             let u = Unroll.clamp_divisible nest r.Driver.choice.Search.u in
             [ { Emit.vname = "u=" ^ Vec.to_string u;
                 nest = Unroll.unroll_and_jam nest u } ]
           end
           else [])
        in
        let spec =
          { Emit.uname = Nest.name nest;
            seed;
            repeats = max 1 repeats;
            variants }
        in
        let text = Emit.program [ spec ] in
        (match out with
        | Some path ->
            if not (Obs.write_file path text) then exit 1;
            Format.eprintf "ujc emit: wrote %s (%s)@." path
              (plural (List.length variants) "variant")
        | None -> if not run_it then print_string text);
        if run_it then begin
          match Ujam_native.Toolchain.find () with
          | Error msg -> usage "ujc emit: --run needs a native toolchain: %s" msg
          | Ok tc -> (
              match Native.run_units tc [ spec ] with
              | Error msg ->
                  Format.eprintf "ujc emit: %s@." msg;
                  exit 1
              | Ok results ->
                  let res = List.hd results in
                  List.iter
                    (fun { Native.vname; seconds; checksums; _ } ->
                      Format.printf "%s: %.3e s/run %s@." vname seconds
                        (String.concat " "
                           (List.map (fun (b, c) -> Printf.sprintf "%s=%.9g" b c) checksums)))
                    res.Native.outcomes;
                  let eqs = Native.equivalences spec res in
                  let bad = List.exists (fun e -> e.Native.diffs <> []) eqs in
                  List.iter
                    (fun { Native.vname; diffs; max_rel_err; _ } ->
                      Format.printf "equivalence %s: %s (max rel err %.3g)@." vname
                        (if diffs = [] then "ok" else "FAILED")
                        max_rel_err)
                    eqs;
                  if bad then exit 1)
        end)
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         (refuses
            "Lower a nest to a standalone OCaml program over flat float              arrays (optionally with the engine-chosen unroll variant),              and with $(b,--run) compile, execute, and check it against              the reference interpreter."))
    Term.(const run $ target_req $ size_arg $ machine_arg $ bound_arg 8
          $ cache_arg $ out_arg $ run_flag $ transform_flag $ repeats_arg
          $ emit_seed_arg)

let lint_cmd =
  let open Ujam_analysis in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Lint every Table-2 kernel.")
  in
  let fuzz_arg =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N" ~doc:"Also lint $(docv) generated nests.")
  in
  let rules_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "rules" ] ~docv:"IDS"
          ~doc:"Only report these rule ids (e.g. UJ005,UJ008).")
  in
  let run target all fuzz seed n machine bound json rules level =
    (match Option.map Options.rules rules with
    | Some (Error e) -> usage "ujc lint: %s" (Options.to_string e)
    | None | Some (Ok _) -> ());
    let lint_nest nest =
      (Nest.name nest, Lint.run ?rules ?level ~bound ~machine nest)
    in
    let targeted =
      match target with
      | None -> []
      | Some s -> (
          match resolve_target s n with
          | Ok nest -> [ lint_nest nest ]
          | Error ({ Error.diagnostics = _ :: _; _ } as e) ->
              [ (s, e.Error.diagnostics) ]
          | Error e -> fail e)
    in
    let catalogue =
      if not all then []
      else List.map (fun e -> lint_nest (kernel e.Catalogue.name n)) Catalogue.all
    in
    let fuzzed =
      if fuzz <= 0 then []
      else
        Ujam_workload.Generator.corpus ~seed ~count:fuzz ()
        |> List.concat_map (fun r -> r.Ujam_workload.Generator.nests)
        |> List.map lint_nest
    in
    let results = targeted @ catalogue @ fuzzed in
    if results = [] then usage "ujc lint: missing TARGET (or pass --all / --fuzz N)";
    let all_ds = List.concat_map snd results in
    let errors, warnings, infos = Diagnostic.count all_ds in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("machine", Json.Str machine.Machine.name);
                ("bound", Json.Int bound);
                ( "nests",
                  Json.List
                    (List.map
                       (fun (name, ds) ->
                         Json.Obj
                           [ ("nest", Json.Str name);
                             ("diagnostics", Json.List (List.map Diagnostic.to_json ds)) ])
                       results) );
                ("errors", Json.Int errors);
                ("warnings", Json.Int warnings);
                ("infos", Json.Int infos);
                ("ok", Json.Bool (errors = 0)) ]))
    else begin
      List.iter (fun d -> Format.printf "@[<v>%a@]@." Diagnostic.pp d) all_ds;
      Format.printf "lint: %s, %s, %s, %s@."
        (plural (List.length results) "nest")
        (plural errors "error") (plural warnings "warning") (plural infos "info")
    end;
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the rule-based static analyzer over a kernel, a loop-nest              file, the whole catalogue ($(b,--all)), or generated nests              ($(b,--fuzz)); exit 1 on any Error-severity diagnostic.")
    Term.(const run $ target_arg $ all_flag $ fuzz_arg $ seed_arg $ size_arg
          $ machine_arg $ bound_arg 8 $ json_arg $ rules_arg $ level_arg)

let explain_cmd =
  let open Ujam_analysis in
  let run target n machine bound json seq level =
    let nest = require_target target n in
    let e = Explain.run ~bound ?level ~seq ~machine nest in
    if json then print_endline (Json.to_string (Explain.to_json e))
    else Format.printf "%a@." Explain.pp e
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain which selection path applies to a nest and why: the              supported-class verdict, legality caps, search-box clamping,              the monotonicity guard, what the cache term changed, and              ($(b,--seq)) the legalizing transformation sequence.")
    Term.(const run $ target_req $ size_arg $ machine_arg $ bound_arg 8
          $ json_arg $ seq_arg $ level_arg)

let dot_cmd =
  let run target n no_input =
    gated ~stage:Error.Graph (require_target target n) (fun nest ->
        let g = Graph.build ~include_input:(not no_input) nest in
        print_string (Graph.to_dot g))
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         (refuses
            "Emit a nest's dependence graph as Graphviz DOT (kernel name or              loop-nest file)."))
    Term.(const run $ target_req $ size_arg $ input_flag)

(* ------------------------------------------------------------------ *)
(* ujc trace: run any subcommand with the observability sink enabled
   and export the recorded spans as Chrome trace_event JSON.  The
   emitted file is read back and validated before we report success,
   so a malformed trace can never be pinned as "written". *)

(* Forward reference to the assembled command group, so trace can
   re-dispatch its operands through the normal command line. *)
let dispatch_ref : (string array -> int) ref = ref (fun _ -> 2)

let validate_trace path =
  match Json.of_string (read_file path) with
  | Error e -> Error (Printf.sprintf "not valid JSON: %s" e)
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          let is_int k e = match Json.member k e with Some (Json.Int _) -> true | _ -> false in
          let well_formed e =
            (match Json.member "name" e with Some (Json.Str _) -> true | _ -> false)
            && Json.member "ph" e = Some (Json.Str "X")
            && List.for_all (fun k -> is_int k e) [ "ts"; "dur"; "pid"; "tid" ]
          in
          if List.for_all well_formed events then Ok events
          else Error "an event lacks name/ph/ts/dur/pid/tid"
      | Some _ -> Error "traceEvents is not a list"
      | None -> Error "missing traceEvents")

let span_count events name =
  List.length
    (List.filter (fun e -> Json.member "name" e = Some (Json.Str name)) events)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Trace output file.")
  in
  let metrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Also dump the metrics registry (counters, gauges, histogram               summaries) as JSON.")
  in
  let cmd_args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CMD"
          ~doc:"Subcommand to trace; a leading $(b,engine) word is accepted               sugar (`ujc trace engine corpus'). Pass the subcommand's own               options after $(b,--).")
  in
  let run out metrics args =
    let args = match args with "engine" :: rest -> rest | rest -> rest in
    if args = [] then usage "ujc trace: missing CMD (try `ujc trace engine corpus')";
    Obs.enable ();
    let code = !dispatch_ref (Array.of_list ("ujc" :: args)) in
    let wrote_trace =
      Obs.write_file out (Json.to_string (Obs.Span.to_chrome ()))
    in
    let wrote_metrics =
      match metrics with
      | None -> true
      | Some path ->
          let ok = Obs.write_file path (Json.to_string (Obs.dump ())) in
          if ok then Format.printf "trace: wrote metrics to %s@." path;
          ok
    in
    if not wrote_trace then exit 1;
    (match validate_trace out with
    | Error e ->
        Format.eprintf "trace: %s is NOT a well-formed Chrome trace: %s@." out e;
        exit 1
    | Ok events ->
        let stages =
          List.map Analysis_ctx.stage_name Analysis_ctx.stages @ [ "corpus" ]
          |> List.filter_map (fun n ->
                 let c = span_count events n in
                 if c > 0 then Some (Printf.sprintf "%s=%d" n c) else None)
        in
        Format.printf "trace: wrote %s (%d events; %s)@." out
          (List.length events)
          (String.concat " " stages);
        Format.printf "trace: %s is well-formed Chrome trace JSON@." out);
    if not wrote_metrics then exit 1;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a subcommand with span tracing enabled and write a Chrome              trace_event JSON file (open in chrome://tracing or Perfetto).")
    Term.(const run $ out_arg $ metrics_arg $ cmd_args)

(* ------------------------------------------------------------------ *)
(* ujc serve: the persistent optimization service.  The daemon's
   defaults for machine/bound/model/seq come from the same flags the
   one-shot subcommands use; per-request params override them. *)

let serve_cmd =
  let open Ujam_serve in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen for clients on a Unix-domain socket bound at $(docv)               (unlinked again on shutdown).")
  in
  let stdio_flag =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Read request lines from stdin and answer on stdout               (the default when $(b,--socket) is absent).")
  in
  let max_loops_arg =
    Arg.(
      value & opt int 2
      & info [ "max-loops" ] ~docv:"L"
          ~doc:"Default cap on simultaneously unrolled loops.")
  in
  let cache_size_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Result-cache capacity in entries (LRU beyond that).")
  in
  let cache_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-file" ] ~docv:"FILE"
          ~doc:"Persist the result cache to $(docv) on shutdown and reload               it at startup, so warm-cache performance survives restarts.               A missing or unreadable file starts cold; a file that cannot               be written at shutdown makes the exit status 1.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 30_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline from arrival to dispatch;               negative disables.")
  in
  let max_bytes_arg =
    Arg.(
      value & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Longest accepted request line; longer lines get a typed               oversized error.")
  in
  let metrics_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Dump the final metrics registry as JSON on shutdown.")
  in
  let trace_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Retain per-request spans and write a Chrome trace on               shutdown (off by default so daemon memory stays bounded).")
  in
  let quiet_flag =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the stderr lifecycle summary.")
  in
  let run machine bound max_loops model seq domains socket stdio cache_size
      cache_file timeout_ms max_request_bytes metrics_out trace_out quiet =
    if socket = None && not stdio then
      usage "ujc serve: no transport; pass --socket PATH and/or --stdio";
    let cfg =
      { Serve.machine; bound; max_loops; model; seq; domains; cache_size;
        cache_file; timeout_ms; max_request_bytes; metrics_out; trace_out;
        quiet }
    in
    if (Serve.run ?listen:socket ~stdio cfg).Serve.dumps_failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent optimization service: line-delimited JSON              requests (optimize, explain, lint, metrics, ping, shutdown)              over a Unix socket and/or stdio, answered from a              content-addressed result cache and a Domain worker pool.")
    Term.(const run $ machine_arg $ bound_arg 4 $ max_loops_arg $ model_term ()
          $ seq_arg $ domains_arg $ socket_arg $ stdio_flag
          $ cache_size_arg $ cache_file_arg $ timeout_arg $ max_bytes_arg $ metrics_out_arg $ trace_out_arg
          $ quiet_flag)

let () =
  let doc = "unroll-and-jam using uniformly generated sets" in
  let info = Cmd.info "ujc" ~version:"1.0.0" ~doc in
  (* cmdliner reserves single-dash spellings for one-letter names; accept
     the documented "--n" as sugar for "-n". *)
  let remap argv = Array.map (fun a -> if a = "--n" then "-n" else a) argv in
  let cmds =
    [ list_cmd; show_cmd; analyze_cmd; tables_cmd; optimize_cmd; simulate_cmd;
      compile_cmd; verify_cmd; graph_cmd; corpus_cmd; fuzz_cmd;
      emit_cmd; lint_cmd; explain_cmd; dot_cmd; trace_cmd; serve_cmd ]
  in
  let group = Cmd.group info cmds in
  (* An unknown first word used to fall through to cmdliner's generic
     usage error (exit 124) without naming the commands.  Catch it up
     front: reject argv(1) only when it is not an option and not a
     prefix of any known command name (cmdliner accepts unambiguous
     prefixes, so `ujc optim' must keep working). *)
  let known = List.map Cmd.name cmds in
  (if Array.length Sys.argv > 1 then
     let cmd = Sys.argv.(1) in
     let is_prefix_of name =
       String.length cmd <= String.length name
       && String.equal (String.sub name 0 (String.length cmd)) cmd
     in
     if
       String.length cmd > 0
       && cmd.[0] <> '-'
       && not (List.exists is_prefix_of known)
     then
       usage "ujc: unknown subcommand %S@\nknown subcommands: %s" cmd
         (String.concat ", " (List.sort String.compare known)));
  dispatch_ref := (fun argv -> Cmd.eval ~argv:(remap argv) group);
  exit (Cmd.eval ~argv:(remap Sys.argv) group)
