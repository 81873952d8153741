(* The unified engine: strategy parity against the driver, deterministic
   parallel corpus runs, and per-routine error degradation. *)

open Ujam_linalg
open Ujam_core
open Ujam_machine
open Ujam_engine
module Json = Ujam_obs.Json

let presets = [ ("alpha", Presets.alpha); ("hppa", Presets.hppa) ]

let report_exn = function
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected engine error: %s" (Error.to_string e)

(* Table-2 parity: for every kernel on both evaluation machines, the
   Ugs_tables strategy through the engine picks the same unroll vector
   and balance as the classic driver path at the same bound. *)
let test_parity () =
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (e : Ujam_kernels.Catalogue.entry) ->
          let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
          let r = Driver.optimize ~bound:4 ~machine nest in
          let outcome =
            Engine.analyze ~bound:4 ~machine
              ~routine:e.Ujam_kernels.Catalogue.name nest
          in
          let rep = report_exn outcome in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: same unroll vector" mname
               e.Ujam_kernels.Catalogue.name)
            true
            (Vec.equal rep.Engine.u r.Driver.choice.Search.u);
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s/%s: same balance" mname
               e.Ujam_kernels.Catalogue.name)
            r.Driver.choice.Search.balance rep.Engine.balance_after)
        Ujam_kernels.Catalogue.all)
    presets

(* The no-cache strategy must likewise match the driver's all-hits
   mode. *)
let test_parity_no_cache () =
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let machine = Presets.alpha in
      let r = Driver.optimize ~bound:4 ~cache:false ~machine nest in
      let rep =
        report_exn
          (Engine.analyze ~bound:4 ~model:(module Model.No_cache) ~machine
             ~routine:e.Ujam_kernels.Catalogue.name nest)
      in
      Alcotest.(check bool)
        (Printf.sprintf "no-cache/%s: same unroll vector"
           e.Ujam_kernels.Catalogue.name)
        true
        (Vec.equal rep.Engine.u r.Driver.choice.Search.u))
    Ujam_kernels.Catalogue.all

(* Unsupported nests: a non-unit loop step and an out-of-class subscript
   coefficient. *)
let bad_step_nest () =
  let d = 2 in
  let open Ujam_ir.Build in
  let j = var d 0 and i = var d 1 in
  nest "strided"
    [ loop d "J" ~level:0 ~lo:1 ~hi:16 ~step:2 ();
      loop d "I" ~level:1 ~lo:1 ~hi:16 () ]
    [ aref "A" [ i; j ] <<- rd "A" [ i; j ] +: rd "B" [ i ] ]

let bad_coef_nest () =
  let d = 2 in
  let open Ujam_ir.Build in
  let j = var d 0 and i = var d 1 in
  nest "scaled"
    [ loop d "J" ~level:0 ~lo:1 ~hi:16 (); loop d "I" ~level:1 ~lo:1 ~hi:16 () ]
    [ aref "A" [ i; j ] <<- rd "A" [ 3 *$ i; j ] +: rd "B" [ i ] ]

let test_check_supported () =
  let reject name nest =
    match Error.check_supported ~routine:name nest with
    | Ok () -> Alcotest.failf "%s should be rejected" name
    | Error e ->
        Alcotest.(check string) (name ^ " stage") "validate"
          (Error.stage_name e.Error.stage)
  in
  reject "strided" (bad_step_nest ());
  reject "scaled" (bad_coef_nest ());
  (* the doubled multigrid stride stays inside the modelled class *)
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      match
        Error.check_supported ~routine:e.Ujam_kernels.Catalogue.name
          (e.Ujam_kernels.Catalogue.build ~n:12 ())
      with
      | Ok () -> ()
      | Error err ->
          Alcotest.failf "kernel %s wrongly rejected: %s"
            e.Ujam_kernels.Catalogue.name (Error.to_string err))
    Ujam_kernels.Catalogue.all

(* A corpus with injected unsupported routines: the batch completes with
   per-routine error records, never an exception, and 1-domain vs
   2-domain runs render byte-identically. *)
let corpus_with_injected () =
  let good = Ujam_workload.Generator.corpus ~seed:1997 ~count:200 () in
  let bad =
    [ { Ujam_workload.Generator.name = "inject-strided";
        nests = [ bad_step_nest () ] };
      { Ujam_workload.Generator.name = "inject-scaled";
        nests = [ bad_coef_nest () ] } ]
  in
  good @ bad

let test_corpus_degrades () =
  let routines = corpus_with_injected () in
  let report =
    Engine.run_corpus ~bound:3 ~machine:Presets.alpha routines
  in
  Alcotest.(check int) "every routine reported" (List.length routines)
    (Array.length report.Engine.routines);
  Alcotest.(check int) "both injected routines failed" 2 report.Engine.failed;
  Array.iter
    (fun r ->
      if String.length r.Engine.routine >= 6
         && String.equal (String.sub r.Engine.routine 0 6) "inject"
      then
        List.iter
          (function
            | Ok _ -> Alcotest.failf "%s should fail" r.Engine.routine
            | Error e ->
                Alcotest.(check string)
                  (r.Engine.routine ^ " fails validation")
                  "validate"
                  (Error.stage_name e.Error.stage))
          r.Engine.nests)
    report.Engine.routines

let test_corpus_deterministic () =
  let routines = corpus_with_injected () in
  let run domains =
    (* a cleared memo, so every domain count does its own full work *)
    Engine.memo_clear ();
    Engine.to_string
      (Engine.run_corpus ~domains ~bound:3 ~machine:Presets.alpha routines)
  in
  let one = run 1 in
  Alcotest.(check string) "1 domain = 2 domains" one (run 2);
  Alcotest.(check string) "1 domain = 4 domains" one (run 4)

(* The same check on a clean seeded synthetic corpus: every domain
   count renders the identical report, with the memo cleared before
   each run. *)
let test_seeded_corpus_deterministic () =
  let routines = Ujam_workload.Generator.corpus ~seed:42 ~count:30 () in
  let run domains =
    Engine.memo_clear ();
    Engine.to_string
      (Engine.run_corpus ~domains ~bound:3 ~machine:Presets.alpha routines)
  in
  let one = run 1 in
  Alcotest.(check string) "1 = 2 domains" one (run 2);
  Alcotest.(check string) "1 = 4 domains" one (run 4)

(* A repeated problem costs one digest, not one analysis: a fresh,
   alpha-renamed copy of a kernel is answered from the outcome memo and
   renders the kernel's report under its own name. *)
let test_renamed_copy_hits_memo () =
  Engine.memo_clear ();
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:12 () in
  let copy = Test_canon.alpha_rename "v" nest in
  let analyze n = report_exn (Engine.analyze ~machine:Presets.alpha n) in
  let render r = Format.asprintf "%a" Engine.pp_nest_outcome (Ok r) in
  let first = analyze nest in
  let hits () = (Engine.memo_stats ()).Result_cache.hits in
  let hits0 = hits () in
  let second = analyze copy in
  Alcotest.(check int) "one memo hit" (hits0 + 1) (hits ());
  Alcotest.(check string) "same report but the name"
    (render { first with Engine.nest_name = Ujam_ir.Nest.name copy })
    (render second)

(* The satellite regression: optimize + speedup_estimate must build the
   balance tables exactly once. *)
let test_tables_built_once () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let r = Driver.optimize ~bound:4 ~machine:Presets.alpha nest in
  Alcotest.(check int) "one build after optimize" 1
    (Analysis_ctx.table_builds r.Driver.ctx);
  let (_ : float) = Driver.speedup_estimate r in
  let (_ : float) = Driver.speedup_estimate r in
  Alcotest.(check int) "still one build after speedup_estimate" 1
    (Analysis_ctx.table_builds r.Driver.ctx)

(* A context passed into the driver is reused, not rebuilt. *)
let test_ctx_shared_across_calls () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:12 () in
  let ctx = Analysis_ctx.create ~bound:4 ~machine:Presets.alpha nest in
  let r1 = Driver.optimize ~ctx ~machine:Presets.alpha nest in
  let r2 = Driver.optimize ~ctx ~machine:Presets.alpha nest in
  Alcotest.(check int) "one table build for two optimize calls" 1
    (Analysis_ctx.table_builds ctx);
  Alcotest.(check bool) "same choice" true
    (Vec.equal r1.Driver.choice.Search.u r2.Driver.choice.Search.u)

let test_registry () =
  Alcotest.(check (list string)) "registry order"
    [ "ugs"; "dep"; "brute"; "no-cache"; "ugs-l2" ]
    Model.names;
  List.iter
    (fun (alias, expect) ->
      match Model.find alias with
      | Some m -> Alcotest.(check string) alias expect (Model.name m)
      | None -> Alcotest.failf "alias %s not found" alias)
    [ ("ugs-tables", "ugs"); ("dependence", "dep"); ("bruteforce", "brute");
      ("carr-kennedy", "no-cache"); ("UGS", "ugs"); ("ugs-l3", "ugs-l3");
      ("ugs-l12", "ugs-l12") ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Option.is_none (Model.find name)))
    [ "magic"; "ugs-l0"; "ugs-l-1"; "ugs-l"; "ugs-l3x" ]

(* The options schema: names come from the preset/model/rule tables,
   ranges are checked on the resolved value (defaults included), and
   unset overrides keep the defaults. *)
let test_options () =
  let defaults =
    { Options.machine = Presets.alpha;
      model = (module Model.Ugs_tables : Model.MODEL);
      bound = 4;
      max_loops = 2;
      seq = false;
      rules = None }
  in
  let none : Options.overrides =
    { machine = None; model = None; bound = None; max_loops = None;
      seq = None; rules = None }
  in
  let error (o : Options.overrides) =
    match Options.resolve defaults o with
    | Ok _ -> "ok"
    | Error e -> Options.to_string e
  in
  (match Options.resolve defaults none with
  | Ok o ->
      Alcotest.(check int) "default bound" 4 o.Options.bound;
      Alcotest.(check string) "default model" "ugs" (Model.name o.Options.model)
  | Error e -> Alcotest.fail (Options.to_string e));
  (match
     Options.resolve defaults
       { none with
         machine = Some "hppa-mem";
         model = Some "ugs-l3";
         bound = Some 0;
         rules = Some [ "UJ008" ] }
   with
  | Ok o ->
      Alcotest.(check string) "machine" Presets.hppa_mem.Machine.name
        o.Options.machine.Machine.name;
      Alcotest.(check string) "level model" "ugs-l3" (Model.name o.Options.model);
      Alcotest.(check (option (list string))) "rules" (Some [ "UJ008" ])
        o.Options.rules
  | Error e -> Alcotest.fail (Options.to_string e));
  Alcotest.(check string) "negative bound" "bound must be >= 0 (got -1)"
    (error { none with bound = Some (-1) });
  Alcotest.(check string) "negative default bound"
    "bound must be >= 0 (got -2)"
    (match Options.resolve { defaults with Options.bound = -2 } none with
    | Ok _ -> "ok"
    | Error e -> Options.to_string e);
  Alcotest.(check string) "unknown model"
    "unknown model \"ugs-l0\" (known: ugs, dep, brute, no-cache, ugs-l2)"
    (error { none with model = Some "ugs-l0" });
  Alcotest.(check string) "unknown rule lists the catalogue"
    (Printf.sprintf "unknown rule id \"UJ999\" (known: %s)"
       (String.concat ", "
          (List.map (fun (id, _, _) -> id) Ujam_analysis.Lint.rules)))
    (error { none with rules = Some [ "UJ008"; "UJ999" ] });
  Alcotest.(check string) "level" "level must be >= 1 (got 0)"
    (match Options.level 0 with Ok _ -> "ok" | Error e -> Options.to_string e)

(* Every diagnostic in a nest report names that nest: repeated problems
   are answered from the memo only when clean, so a legalization
   certificate never crosses over to a structurally equal nest. *)
let test_seq_diagnostics_own_nest () =
  let routines =
    Ujam_workload.Generator.corpus ~seed:1 ~recurrent:true ~count:60 ()
  in
  let report = Engine.run_corpus ~seq:true ~machine:Presets.alpha routines in
  let seen = ref 0 in
  Array.iter
    (fun (r : Engine.routine_report) ->
      List.iter
        (function
          | Ok (n : Engine.nest_report) ->
              List.iter
                (fun (d : Ujam_analysis.Diagnostic.t) ->
                  incr seen;
                  Alcotest.(check (option string))
                    (Printf.sprintf "%s %s" d.rule n.Engine.nest_name)
                    (Some n.Engine.nest_name) d.loc.Ujam_ir.Loc.nest)
                n.Engine.diagnostics
          | Error _ -> ())
        r.Engine.nests)
    report.Engine.routines;
  Alcotest.(check bool) "the corpus carries certificates" true (!seen > 0)

(* JSON rendering stays valid on edge values (inf balance from
   zero-flop nests must become null, not a bare inf token). *)
let test_json_non_finite () =
  Alcotest.(check string) "inf -> null" "null"
    (Json.to_string (Json.Float infinity));
  Alcotest.(check string) "nan -> null" "null"
    (Json.to_string (Json.Float nan));
  Alcotest.(check string) "escaping" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}))

let suite =
  [ Alcotest.test_case "Table-2 parity on both machines" `Quick test_parity;
    Alcotest.test_case "no-cache parity" `Quick test_parity_no_cache;
    Alcotest.test_case "check_supported" `Quick test_check_supported;
    Alcotest.test_case "corpus degrades per-routine" `Quick test_corpus_degrades;
    Alcotest.test_case "corpus deterministic across domains" `Quick
      test_corpus_deterministic;
    Alcotest.test_case "renamed copy hits the memo" `Quick
      test_renamed_copy_hits_memo;
    Alcotest.test_case "tables built once" `Quick test_tables_built_once;
    Alcotest.test_case "shared context reused" `Quick test_ctx_shared_across_calls;
    Alcotest.test_case "model registry" `Quick test_registry;
    Alcotest.test_case "options schema" `Quick test_options;
    Alcotest.test_case "seq diagnostics name their nest" `Quick
      test_seq_diagnostics_own_nest;
    Alcotest.test_case "json edge values" `Quick test_json_non_finite;
    Alcotest.test_case "seeded corpus across domains" `Quick
      test_seeded_corpus_deterministic ]
