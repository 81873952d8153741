(* The static analyzer: lint rules fire where they should and stay
   silent on the supported corpus; the monotonicity guard catches an
   injected register-table bug and degrades the pruned search to the
   exhaustive path instead of returning a wrong vector; the
   transformation verifiers accept the real transforms and reject
   tampered ones; parse failures surface as located UJ000 errors. *)

open Ujam_linalg
open Ujam_ir
open Ujam_ir.Build
open Ujam_analysis

let alpha = Ujam_machine.Presets.alpha

let catalogue name =
  match Ujam_kernels.Catalogue.find name with
  | Some e -> e.Ujam_kernels.Catalogue.build ()
  | None -> Alcotest.failf "catalogue kernel %s not found" name

let rules diags = List.map (fun d -> d.Diagnostic.rule) diags
let has rule diags = List.mem rule (rules diags)

let errors diags =
  let e, _, _ = Diagnostic.count diags in
  e

(* A depth-2 nest every transform in the suite handles: constant
   bounds with trips divisible by the unroll factors used below. *)
let jv = var 2 0
let iv = var 2 1

let base =
  nest "verisrc"
    [ loop 2 "J" ~level:0 ~lo:1 ~hi:8 (); loop 2 "I" ~level:1 ~lo:1 ~hi:8 () ]
    [ aref "A" [ iv; jv ] <<- (rd "A" [ iv; jv ] +: (rd "B" [ jv ] *: rd "C" [ iv ])) ]

let step2 =
  nest "step2"
    [ loop 2 "J" ~level:0 ~lo:1 ~hi:8 ~step:2 ();
      loop 2 "I" ~level:1 ~lo:1 ~hi:8 () ]
    [ aref "A" [ iv; jv ] <<- (rd "A" [ iv; jv ] +: f 1.0) ]

(* --- lint rules ------------------------------------------------- *)

let test_corpus_clean () =
  List.iter
    (fun machine ->
      List.iter
        (fun e ->
          let nest = e.Ujam_kernels.Catalogue.build () in
          let diags = Lint.run ~machine nest in
          let errs = List.filter Diagnostic.is_error diags in
          Alcotest.(check int)
            (Printf.sprintf "%s on %s: zero Error diagnostics"
               e.Ujam_kernels.Catalogue.name
               machine.Ujam_machine.Machine.name)
            0 (List.length errs))
        Ujam_kernels.Catalogue.all)
    [ alpha; Ujam_machine.Presets.hppa ]

let test_rule_step () =
  let diags = Lint.run ~machine:alpha step2 in
  Alcotest.(check bool) "UJ004 fires on a step-2 loop" true (has "UJ004" diags);
  Alcotest.(check bool) "and it is an Error" true (errors diags > 0)

let test_rule_coefficient () =
  let nest =
    nest "bigcoef"
      [ loop 2 "J" ~level:0 ~lo:1 ~hi:8 (); loop 2 "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "Y" [ 3 *$ iv ] <<- (rd "Y" [ 3 *$ iv ] +: rd "X" [ jv ]) ]
  in
  let diags = Lint.run ~machine:alpha nest in
  Alcotest.(check bool) "UJ005 fires on coefficient 3" true (has "UJ005" diags);
  let d = List.find (fun d -> d.Diagnostic.rule = "UJ005") diags in
  Alcotest.(check bool) "located at a statement" true
    (d.Diagnostic.loc.Loc.stmt <> None);
  Alcotest.(check bool) "located at a site" true
    (d.Diagnostic.loc.Loc.site <> None)

let test_rule_trip () =
  let nest =
    nest "empty-trip"
      [ loop 2 "J" ~level:0 ~lo:5 ~hi:1 (); loop 2 "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "A" [ iv; jv ] <<- (rd "A" [ iv; jv ] +: f 1.0) ]
  in
  let diags = Lint.run ~machine:alpha nest in
  Alcotest.(check bool) "UJ002 fires on lo=5, hi=1" true (has "UJ002" diags)

let test_rule_coupled () =
  let nest =
    nest "coupled"
      [ loop 2 "J" ~level:0 ~lo:1 ~hi:8 (); loop 2 "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "A" [ jv ++$ iv ] <<- (rd "A" [ jv ++$ iv ] +: f 1.0) ]
  in
  let diags = Lint.run ~machine:alpha nest in
  Alcotest.(check bool) "UJ006 fires on A(J+I)" true (has "UJ006" diags);
  Alcotest.(check int) "coupling is a warning, not an error" 0 (errors diags)

let test_rule_subscript_depth () =
  let shallow = var 1 0 in
  let bad = Nest.with_body base [ aref "A" [ shallow ] <<- rd "A" [ shallow ] ] in
  let diags = Lint.run ~machine:alpha bad in
  Alcotest.(check bool) "UJ003 fires on depth-1 subscripts in a depth-2 nest"
    true (has "UJ003" diags)

let test_rules_filter () =
  let diags = Lint.run ~rules:[ "UJ004" ] ~machine:alpha step2 in
  Alcotest.(check (list string)) "--rules restricts output" [ "UJ004" ]
    (rules diags)

(* --- the monotonicity guard ------------------------------------- *)

let dmxpy_ctx () =
  Ujam_core.Analysis_ctx.create ~bound:8 ~machine:alpha (catalogue "dmxpy0")

let test_monotone_certifies () =
  let bal = Ujam_core.Analysis_ctx.balance (dmxpy_ctx ()) in
  Alcotest.(check bool) "the sweep-built register table is monotone" true
    (Monotone.check_registers bal = None);
  let choice, violation = Monotone.search ~cache:true bal in
  Alcotest.(check bool) "no violation on the clean table" true
    (violation = None);
  let pruned = Ujam_core.Search.best ~prune:true ~cache:true bal in
  Alcotest.(check bool) "guarded search = pruned search" true
    (Vec.equal choice.Ujam_core.Search.u pruned.Ujam_core.Search.u)

(* Inject R(1,0) = 10000: the pruned search sees the register file
   exceeded at (1,0) and (unsoundly, on this broken table) discards the
   whole upward box, returning the zero vector.  The guard must detect
   the violation at (2,0) and fall back to the exhaustive scan, which
   still finds the true optimum. *)
let test_monotone_catches_injected_bug () =
  let bal = Ujam_core.Analysis_ctx.balance (dmxpy_ctx ()) in
  let poison = Vec.of_list [ 1; 0 ] in
  let bal' =
    Ujam_core.Balance.map_registers bal (fun u r ->
        if Vec.equal u poison then 10_000 else r)
  in
  (match Monotone.check_registers bal' with
  | None -> Alcotest.fail "injected violation not detected"
  | Some v ->
      Alcotest.(check bool) "violation located just past the poisoned cell"
        true
        (Vec.equal v.Monotone.u (Vec.of_list [ 2; 0 ]));
      Alcotest.(check int) "along the poisoned axis" 0 v.Monotone.axis;
      Alcotest.(check int) "predecessor value is the injected one" 10_000
        v.Monotone.below;
      let d = Monotone.diagnostic ~nest:"dmxpy0" v in
      Alcotest.(check string) "reported as UJ010" "UJ010" d.Diagnostic.rule;
      Alcotest.(check bool) "as a warning, not an error" false
        (Diagnostic.is_error d));
  let reference = Ujam_core.Search.best ~prune:false ~cache:true bal in
  let pruned = Ujam_core.Search.best ~prune:true ~cache:true bal' in
  let exhaustive = Ujam_core.Search.best ~prune:false ~cache:true bal' in
  Alcotest.(check bool) "unguarded pruning returns the wrong (zero) vector"
    true
    (Vec.is_zero pruned.Ujam_core.Search.u);
  Alcotest.(check bool) "the exhaustive scan is unaffected by the poison" true
    (Vec.equal exhaustive.Ujam_core.Search.u reference.Ujam_core.Search.u);
  Alcotest.(check bool) "which is a real unroll, not the zero vector" false
    (Vec.is_zero reference.Ujam_core.Search.u);
  let guarded, violation = Monotone.search ~cache:true bal' in
  Alcotest.(check bool) "guard reports the violation" true (violation <> None);
  Alcotest.(check bool) "guarded search returns the exhaustive answer" true
    (Vec.equal guarded.Ujam_core.Search.u exhaustive.Ujam_core.Search.u)

(* --- transformation verifiers ----------------------------------- *)

let test_verify_unroll () =
  let u = Vec.of_list [ 3; 0 ] in
  let t = Unroll.unroll_and_jam base u in
  Alcotest.(check int) "unroll-and-jam by (3,0) verifies" 0
    (List.length (Verify.unroll ~original:base ~u t));
  (* shift every subscript of the transformed body: same shape, wrong
     access multiset *)
  let shifted =
    Nest.with_body t (List.map (fun s -> Stmt.shift s [| 1; 0 |]) (Nest.body t))
  in
  let diags = Verify.unroll ~original:base ~u shifted in
  Alcotest.(check bool) "shifted body rejected as UJ020" true
    (has "UJ020" diags);
  Alcotest.(check bool) "as an Error" true (errors diags > 0);
  (* reset the unrolled loop's step back to the original: right body,
     wrong iteration spacing *)
  let loops = Array.map (fun l -> Loop.with_step l 1) (Nest.loops t) in
  let bad_step = Nest.with_loops t loops in
  Alcotest.(check bool) "wrong step rejected as UJ020" true
    (has "UJ020" (Verify.unroll ~original:base ~u bad_step))

let test_verify_interchange () =
  let perm = [| 1; 0 |] in
  let t = Interchange.apply base perm in
  Alcotest.(check int) "interchange (1 0) verifies" 0
    (List.length (Verify.interchange ~original:base ~perm t));
  let diags = Verify.interchange ~original:base ~perm:[| 0; 1 |] t in
  Alcotest.(check bool) "wrong permutation rejected as UJ021" true
    (has "UJ021" diags)

let test_verify_tile () =
  let t = Tile.tile base ~levels:[ 0 ] ~sizes:[ 4 ] in
  Alcotest.(check int) "tiling level 0 by 4 verifies" 0
    (List.length (Verify.tile ~original:base ~levels:[ 0 ] ~sizes:[ 4 ] t));
  let diags = Verify.tile ~original:base ~levels:[ 0 ] ~sizes:[ 2 ] t in
  Alcotest.(check bool) "wrong tile size rejected as UJ022" true
    (has "UJ022" diags)

(* --- parse errors and the engine fence -------------------------- *)

let test_parse_located () =
  match Parse.nest ~name:"bad" "DO I = 1 8\n  A(I) = 1.0\nENDDO" with
  | Ok _ -> Alcotest.fail "malformed DO header parsed"
  | Error e ->
      Alcotest.(check (option int)) "error located on line 1" (Some 1)
        e.Parse.loc.Loc.line;
      let d = Lint.of_parse_error e in
      Alcotest.(check string) "surfaced as UJ000" "UJ000" d.Diagnostic.rule;
      Alcotest.(check bool) "as an Error" true (Diagnostic.is_error d);
      Alcotest.(check (option int)) "location carried through" (Some 1)
        d.Diagnostic.loc.Loc.line

let test_engine_fence_attaches_diagnostics () =
  match Ujam_engine.Error.check_supported ~routine:"step2" step2 with
  | Ok () -> Alcotest.fail "step-2 nest accepted by the fence"
  | Error err ->
      Alcotest.(check bool) "fence failure carries located diagnostics" true
        (err.Ujam_engine.Error.diagnostics <> []);
      Alcotest.(check bool) "including UJ004" true
        (has "UJ004" err.Ujam_engine.Error.diagnostics)

(* --- explain verdicts ------------------------------------------- *)

let test_explain_models () =
  let e = Explain.run ~machine:alpha (catalogue "dmxpy0") in
  Alcotest.(check string) "dmxpy0 goes down the ugs path" "ugs"
    e.Explain.model;
  Alcotest.(check bool) "with a non-trivial chosen vector" true
    (match e.Explain.choice with Some c -> not (Vec.is_zero c.Ujam_core.Search.u) | None -> false);
  let e = Explain.run ~machine:alpha step2 in
  Alcotest.(check string) "step-2 nest is unsupported" "unsupported"
    e.Explain.model;
  let one =
    nest "one"
      [ loop 1 "I" ~level:0 ~lo:1 ~hi:8 () ]
      [ aref "A" [ var 1 0 ] <<- (rd "A" [ var 1 0 ] +: f 1.0) ]
  in
  let e = Explain.run ~machine:alpha one in
  Alcotest.(check string) "a depth-1 nest is trivial" "trivial"
    e.Explain.model

let suite =
  [ Alcotest.test_case "corpus is lint-clean" `Quick test_corpus_clean;
    Alcotest.test_case "UJ004 non-unit step" `Quick test_rule_step;
    Alcotest.test_case "UJ005 big coefficient" `Quick test_rule_coefficient;
    Alcotest.test_case "UJ002 non-positive trip" `Quick test_rule_trip;
    Alcotest.test_case "UJ006 coupled subscript" `Quick test_rule_coupled;
    Alcotest.test_case "UJ003 subscript depth" `Quick test_rule_subscript_depth;
    Alcotest.test_case "rule filter" `Quick test_rules_filter;
    Alcotest.test_case "monotone: clean table certifies" `Quick
      test_monotone_certifies;
    Alcotest.test_case "monotone: injected bug degrades search" `Quick
      test_monotone_catches_injected_bug;
    Alcotest.test_case "verify unroll" `Quick test_verify_unroll;
    Alcotest.test_case "verify interchange" `Quick test_verify_interchange;
    Alcotest.test_case "verify tile" `Quick test_verify_tile;
    Alcotest.test_case "parse errors are located" `Quick test_parse_located;
    Alcotest.test_case "engine fence diagnostics" `Quick
      test_engine_fence_attaches_diagnostics;
    Alcotest.test_case "explain verdicts" `Quick test_explain_models ]
