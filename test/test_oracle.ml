(* The differential oracle: clean runs stay clean, injected table bugs
   are caught and shrunk to small reproducers. *)

open Ujam_linalg
open Ujam_ir
open Ujam_oracle

let machine = Ujam_machine.Presets.alpha

(* ---- the three layers on known-good kernels -------------------------- *)

let test_recount_kernels () =
  List.iter
    (fun nest ->
      Alcotest.(check int)
        (Printf.sprintf "%s: tables match materialized recount"
           (Nest.name nest))
        0
        (List.length (Recount.check ~machine nest)))
    [ Ujam_kernels.Kernels.mmjki ~n:12 ();
      Ujam_kernels.Kernels.dmxpy0 ~n:24 ();
      Ujam_kernels.Kernels.jacobi ~n:14 ();
      Ujam_kernels.Kernels.sor ~n:14 () ]

let test_crossmodel_kernels () =
  List.iter
    (fun nest ->
      let unexplained =
        List.filter
          (fun m -> not (Mismatch.is_explained m))
          (Crossmodel.check ~machine nest)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: no unexplained model divergence" (Nest.name nest))
        0 (List.length unexplained))
    [ Ujam_kernels.Kernels.mmjki ~n:12 ();
      Ujam_kernels.Kernels.dmxpy0 ~n:24 () ]

let test_simcheck_kernel () =
  let o = Simcheck.check ~machine (Ujam_kernels.Kernels.dmxpy0 ~n:24 ()) in
  Alcotest.(check bool) "candidates replayed" true (o.Simcheck.simulated > 1);
  Alcotest.(check int) "no rank inversion" 0 (List.length o.Simcheck.mismatches)

(* ---- clean fuzz run --------------------------------------------------- *)

let tally r name =
  snd (List.find (fun (l, _) -> Fuzz.layer_name l = name) r.Fuzz.tallies)

let test_clean_run () =
  let cfg = { (Fuzz.default_config ~machine ()) with Fuzz.n = 20; seed = 5 } in
  let r = Fuzz.run cfg in
  Alcotest.(check int) "all requested nests checked" 20 r.Fuzz.nests;
  Alcotest.(check int) "no mismatches" 0 r.Fuzz.total_mismatches;
  Alcotest.(check bool) "report ok" true (Fuzz.ok r);
  Alcotest.(check bool) "sim layer exercised" true
    ((tally r "sim").Fuzz.checked > 0)

let test_deterministic () =
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 10;
      seed = 9;
      layers = [ Fuzz.recount (); Fuzz.cross_model ] }
  in
  let render r = Format.asprintf "%a" Fuzz.pp r in
  Alcotest.(check string)
    "same config, same report"
    (render (Fuzz.run cfg))
    (render (Fuzz.run cfg))

(* ---- fault injection: a deliberate table bug must be caught and
   shrunk to a small reproducer (the PR's acceptance regression). ------- *)

let test_injected_bug_caught_and_shrunk () =
  (* Pretend V_M over-counts by one on every non-trivial unroll vector:
     the recount layer must flag it on any nest with a real search
     space, and shrinking must keep only enough structure to reproduce
     (a non-trivial space needs two loops; one statement with one read
     suffices). *)
  let perturb u (c : Counts.t) =
    if Vec.is_zero u then c
    else { c with Counts.memory_ops = c.Counts.memory_ops + 1 }
  in
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 12;
      seed = 42;
      layers = [ Fuzz.recount ~perturb () ];
      shrink = true }
  in
  let r = Fuzz.run cfg in
  Alcotest.(check bool) "bug caught" true (r.Fuzz.unexplained > 0);
  Alcotest.(check bool) "report not ok" true (not (Fuzz.ok r));
  let reduced = List.filter_map (fun f -> f.Fuzz.reduced) r.Fuzz.failures in
  Alcotest.(check bool) "reproducers produced" true (reduced <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: reproducer has at most 2 loops" (Nest.name n))
        true
        (Nest.depth n <= 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reproducer has at most 3 refs" (Nest.name n))
        true
        (List.length (Nest.refs n) <= 3);
      (* the reproducer still fails the injected check *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: reproducer still failing" (Nest.name n))
        true
        (Recount.check ~perturb ~machine n
        |> List.exists (fun m -> not (Mismatch.is_explained m))))
    reduced

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ---- a layer defined outside the library ----------------------------- *)

(* Flags every nest with two or more references.  Through [Fuzz.run] it
   must be counted, rendered under its own name in both formats, and
   shrunk like a shipped layer: one statement reading one array is the
   smallest nest it still flags. *)
let multi_ref =
  { Fuzz.name = "multi-ref";
    default = false;
    stage = Ujam_engine.Error.Transform;
    check =
      (fun cfg s ->
        let nest = Subject.nest s in
        let refs = List.length (Nest.refs nest) in
        let ms =
          if refs < 2 then []
          else
            [ Mismatch.make ~nest:(Nest.name nest)
                ~machine:cfg.Fuzz.machine.Ujam_machine.Machine.name
                (Mismatch.Verify
                   { u = Vec.zero (Nest.depth nest);
                     rule = "TEST";
                     detail = Printf.sprintf "%d references" refs }) ]
        in
        (ms, { Fuzz.checked = 1; skipped = 0; failed = List.length ms }));
    render =
      (fun t ->
        Some
          ( Printf.sprintf "multi-ref layer: %d of %d nests flagged" t.Fuzz.failed
              t.Fuzz.checked,
            [ ("multi_ref_flagged", t.Fuzz.failed) ] )) }

let test_custom_layer () =
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 6;
      seed = 42;
      layers = [ multi_ref ] }
  in
  let r = Fuzz.run cfg in
  let t = tally r "multi-ref" in
  Alcotest.(check int) "every nest counted" 6 t.Fuzz.checked;
  Alcotest.(check bool) "nests flagged" true (t.Fuzz.failed > 0);
  Alcotest.(check bool) "report not ok" false (Fuzz.ok r);
  let text = Format.asprintf "%a" Fuzz.pp r in
  let json = Ujam_obs.Json.to_string (Fuzz.to_json r) in
  List.iter
    (fun (what, haystack, needle) ->
      Alcotest.(check bool) (what ^ " mentions " ^ needle) true
        (contains haystack needle))
    [ ("text", text, "layers=multi-ref");
      ("text", text, Printf.sprintf "multi-ref layer: %d of 6 nests flagged" t.Fuzz.failed);
      ("text", text, "sim layer: 0 nests");
      ("json", json, Printf.sprintf "\"multi_ref_flagged\":%d" t.Fuzz.failed) ];
  Alcotest.(check bool) "failures recorded" true (r.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      match f.Fuzz.reduced with
      | None -> Alcotest.fail "failure not shrunk"
      | Some n ->
          Alcotest.(check int)
            (Printf.sprintf "%s: one statement left" (Nest.name n))
            1
            (List.length (Nest.body n));
          Alcotest.(check int)
            (Printf.sprintf "%s: two references left" (Nest.name n))
            2
            (List.length (Nest.refs n)))
    r.Fuzz.failures

(* ---- the shrinker on a hand-written predicate ------------------------ *)

let has_coef2 nest =
  List.exists
    (fun ((r : Aref.t), _) ->
      Array.exists
        (fun (s : Affine.t) -> Array.exists (fun c -> abs c = 2) s.Affine.coefs)
        r.Aref.subs)
    (Nest.refs nest)

let test_shrink_minimises () =
  let open Ujam_ir.Build in
  let d = 3 in
  let big =
    nest "big"
      [ loop d "I" ~level:0 ~lo:1 ~hi:12 ();
        loop d "J" ~level:1 ~lo:1 ~hi:12 ();
        loop d "K" ~level:2 ~lo:1 ~hi:12 () ]
      [ aref "A" [ var d 0; var d 1 ]
        <<- (rd "B" [ 2 *$ var d 2 ] +: rd "C" [ var d 0; var d 1 ])
            +: rd "A" [ var d 0; var d 1 ];
        aref "D" [ var d 2 ] <<- rd "D" [ var d 2 ] *: rd "C" [ var d 1; var d 2 ] ]
  in
  Alcotest.(check bool) "predicate holds on the input" true (has_coef2 big);
  let small = Shrink.run ~still_fails:has_coef2 big in
  Alcotest.(check bool) "predicate preserved" true (has_coef2 small);
  Alcotest.(check int) "one loop left" 1 (Nest.depth small);
  Alcotest.(check int) "one statement left" 1 (List.length (Nest.body small));
  Alcotest.(check int) "two refs left" 2 (List.length (Nest.refs small));
  match Nest.trip_counts small with
  | Some trips ->
      Alcotest.(check bool) "trip count shrunk" true
        (Array.for_all (fun t -> t <= 4) trips)
  | None -> Alcotest.fail "constant bounds expected"

let test_shrink_rejects_different_failure () =
  (* A predicate that raises must be treated as "not the same failure":
     the input comes back unchanged. *)
  let nest = Ujam_kernels.Kernels.jacobi ~n:14 () in
  let boom _ = failwith "different failure" in
  let out = Shrink.run ~still_fails:boom nest in
  Alcotest.(check string) "unchanged" (Nest.to_string nest)
    (Nest.to_string out)

let test_snippet () =
  let open Ujam_ir.Build in
  let d = 2 in
  let n =
    nest "repro"
      [ loop d "I" ~level:0 ~lo:1 ~hi:4 (); loop d "J" ~level:1 ~lo:1 ~hi:4 () ]
      [ aref "A" [ var d 0; var d 1 ] <<- rd "B" [ var d 1; (2 *$ var d 0) +$ 1 ] ]
  in
  let s = Shrink.to_snippet n in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "snippet mentions %s" needle)
        true
        (contains s needle))
    [ "let open Ujam_ir.Build in"; "nest \"repro\""; "rd \"B\"";
      "(2 *$ var d 0) +$ 1"; "~lo:1 ~hi:4" ];
  match Shrink.to_json n with
  | Ujam_obs.Json.Obj fields ->
      Alcotest.(check bool) "json has loops and snippet" true
        (List.mem_assoc "loops" fields && List.mem_assoc "snippet" fields)
  | _ -> Alcotest.fail "object expected"

(* ---- the subject's materialised sweep ------------------------------- *)

(* The materialised recount the recount layer ran on its own before the
   layers shared one sweep: unroll, then count the value streams of the
   unrolled body.  It is the reference the sweep must equal. *)
let reference_counts nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  let d = Nest.depth unrolled in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  let summary =
    Ujam_core.Streams.summarize (Ujam_core.Streams.of_body ~localized unrolled)
  in
  { Counts.memory_ops = summary.Ujam_core.Streams.memory_ops;
    registers = summary.Ujam_core.Streams.registers;
    flops = Nest.flops_per_iteration unrolled }

(* Every cell of the sweep, at its vector's index, carries the
   reference recount of that vector.  The nests are the fuzz
   generator's deep-space routines (2- to 4-deep), each unrolled on up
   to three levels by up to 3. *)
let prop_sweep_is_recount =
  QCheck2.Test.make ~name:"oracle: sweep = materialised recount" ~count:25
    ~print:string_of_int (QCheck2.Gen.int_bound 1_000_000)
    (fun seed ->
      let r =
        Ujam_workload.Generator.routine ~deep:true (Random.State.make [| seed |]) 0
      in
      List.for_all
        (fun nest ->
          let s = Subject.make ~bound:3 ~max_loops:3 ~machine nest in
          let space = Ujam_core.Analysis_ctx.space (Subject.ctx s) in
          let sweep = Subject.sweep s in
          Array.length sweep = Ujam_core.Unroll_space.card space
          && List.for_all
               (fun u ->
                 let m = sweep.(Ujam_core.Unroll_space.index space u) in
                 Counts.equal (Counts.of_metrics m) (reference_counts nest u)
                 && m == Subject.metrics s u)
               (Ujam_core.Unroll_space.vectors space))
        r.Ujam_workload.Generator.nests)

(* A sweep that raises fails every layer reading it, each with its own
   stage — the second reader included, after the first forced it — while
   the layers that do not read it still run on the same subject. *)
let test_sweep_error_reported () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:24 () in
  let s =
    Subject.make ~machine ~metrics:(fun _ _ -> failwith "sweep failed") nest
  in
  let cfg = Fuzz.default_config ~machine () in
  let outcome (l : Fuzz.layer) =
    Ujam_engine.Error.guard ~stage:l.Fuzz.stage ~routine:"r" (fun () -> l.Fuzz.check cfg s)
  in
  List.iter
    (fun (l : Fuzz.layer) ->
      match outcome l with
      | Ok _ -> Alcotest.failf "%s: sweep error not reported" l.Fuzz.name
      | Error e ->
          Alcotest.(check string) (l.Fuzz.name ^ ": message") "sweep failed"
            e.Ujam_engine.Error.message;
          Alcotest.(check bool) (l.Fuzz.name ^ ": the layer's stage") true
            (e.Ujam_engine.Error.stage = l.Fuzz.stage))
    [ Fuzz.recount (); Fuzz.cross_model; Fuzz.recount () ];
  List.iter
    (fun (l : Fuzz.layer) ->
      Alcotest.(check bool) (l.Fuzz.name ^ ": runs without the sweep") true
        (Result.is_ok (outcome l)))
    [ Fuzz.sim; Fuzz.verify ]

(* Repeating a run must not retain memory: after a full major
   collection the live heap after 20 runs of the same 6 nests is the
   live heap after one, up to a small fixed slack. *)
let test_runs_retain_nothing () =
  let cfg = { (Fuzz.default_config ~machine ()) with Fuzz.n = 6; seed = 42 } in
  let live_after runs =
    for _ = 1 to runs do
      ignore (Fuzz.run cfg : Fuzz.report)
    done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let once = live_after 1 in
  let twenty = live_after 20 in
  Alcotest.(check bool)
    (Printf.sprintf "live words %d after 1 run, %d after 20 more" once twenty)
    true
    (twenty - once < 20_000)

let suite =
  [ Alcotest.test_case "recount: kernels" `Quick test_recount_kernels;
    Alcotest.test_case "cross-model: kernels" `Quick test_crossmodel_kernels;
    Alcotest.test_case "simcheck: kernel" `Quick test_simcheck_kernel;
    Alcotest.test_case "fuzz: clean run" `Quick test_clean_run;
    Alcotest.test_case "fuzz: deterministic" `Quick test_deterministic;
    Alcotest.test_case "fuzz: injected bug caught+shrunk" `Quick
      test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "shrink: minimises" `Quick test_shrink_minimises;
    Alcotest.test_case "shrink: different failure" `Quick
      test_shrink_rejects_different_failure;
    Alcotest.test_case "shrink: snippet + json" `Quick test_snippet;
    Alcotest.test_case "fuzz: custom layer reported+shrunk" `Quick
      test_custom_layer;
    Gen.to_alcotest prop_sweep_is_recount;
    Alcotest.test_case "subject: sweep error reported" `Quick
      test_sweep_error_reported;
    Alcotest.test_case "fuzz: repeated runs retain nothing" `Quick
      test_runs_retain_nothing ]
