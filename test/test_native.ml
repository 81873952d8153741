(* The native ground-truth column: emitted programs, compiled and run
   by the host toolchain, must reproduce the reference interpreter's
   checksums exactly — on the pinned kernel suite and on a large batch
   of QCheck-generated nests — and the differential oracle must catch
   (and shrink) an injected emitter bug.

   Every test that needs a compiler self-skips when no toolchain is on
   PATH: the probe returns a typed error and the assertions reduce to
   the degradation contract. *)

open Ujam_linalg
open Ujam_ir
open Ujam_native

let machine = Ujam_machine.Presets.alpha

(* Self-skip guard: the whole suite must pass on a host without a
   native compiler (satellite 4), so compiler-backed tests become
   no-ops there.  The probe itself is still exercised below. *)
let with_tc f = match Toolchain.find () with Error _ -> () | Ok tc -> f tc

(* ---- discovery ------------------------------------------------------- *)

let test_probe_scrubbed () =
  match Toolchain.probe ~path:"/nonexistent-ujc-test" () with
  | Ok t ->
      Alcotest.failf "probe found %s on a scrubbed PATH" t.Toolchain.command
  | Error msg ->
      Alcotest.(check bool)
        "error message names the missing tools" true
        (String.length msg > 0)

let test_probe_is_pure () =
  (* two scrubbed probes agree, and a scrubbed probe does not poison
     the process-wide cache used by [find] *)
  let a = Toolchain.probe ~path:"" () in
  let b = Toolchain.probe ~path:"" () in
  Alcotest.(check bool) "probe deterministic" true (a = b);
  with_tc (fun tc ->
      Alcotest.(check bool)
        "find still succeeds after scrubbed probes" true
        (String.length tc.Toolchain.command > 0))

(* ---- the pinned suite: 19 kernels x 2 machines ----------------------- *)

let kernel_specs machine =
  List.map
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let r =
        Ujam_core.Driver.optimize ~bound:4 ~cache:true ~machine nest
      in
      let u =
        Unroll.clamp_divisible nest r.Ujam_core.Driver.choice.Ujam_core.Search.u
      in
      let variants =
        { Emit.vname = "orig"; nest }
        ::
        (if Vec.is_zero u then []
         else
           [ { Emit.vname = "unrolled"; nest = Unroll.unroll_and_jam nest u } ])
      in
      { Emit.uname = e.Ujam_kernels.Catalogue.name;
        seed = Ujam_sim.Interp.default_seed;
        repeats = 1;
        variants })
    Ujam_kernels.Catalogue.all

(* Every variant must match the interpreter run of its own nest; and
   because the engine's choice is legal and clamped to divisibility,
   the original and unrolled columns must also agree with each other. *)
let check_specs tc specs =
  match Native.run_units tc specs with
  | Error msg -> Alcotest.fail msg
  | Ok results ->
      List.iter2
        (fun (spec : Emit.unit_spec) (res : Native.unit_outcomes) ->
          List.iter
            (fun (e : Native.equivalence) ->
              if e.Native.diffs <> [] then
                Alcotest.failf "%s/%s diverges from the interpreter (err %g)"
                  spec.Emit.uname e.Native.vname e.Native.max_rel_err)
            (Native.equivalences spec res);
          match res.Native.outcomes with
          | [ orig; unrolled ] ->
              Alcotest.(check int)
                (spec.Emit.uname ^ ": same array set")
                (List.length orig.Native.checksums)
                (List.length unrolled.Native.checksums);
              List.iter2
                (fun (b0, c0) (b1, c1) ->
                  Alcotest.(check string)
                    (spec.Emit.uname ^ ": array order") b0 b1;
                  let err =
                    Float.abs (c0 -. c1) /. Float.max 1.0 (Float.abs c0)
                  in
                  if err > Native.default_tolerance then
                    Alcotest.failf "%s array %s: orig %h vs unrolled %h"
                      spec.Emit.uname b0 c0 c1)
                orig.Native.checksums unrolled.Native.checksums
          | _ -> ())
        specs results

let test_pinned_alpha () =
  with_tc (fun tc -> check_specs tc (kernel_specs Ujam_machine.Presets.alpha))

let test_pinned_hppa () =
  with_tc (fun tc -> check_specs tc (kernel_specs Ujam_machine.Presets.hppa))

(* ---- property: generated nests, original vs unrolls vs native -------- *)

(* >= 200 nests drawn from the QCheck nest generator under a fixed
   state, each emitted as original plus up to two legalized unrolls,
   batched ~50 nests per compiled program so the whole property costs a
   handful of compiler invocations rather than hundreds. *)
let property_count = 200

let generated_specs () =
  let rand = Random.State.make [| 0x5eed |] in
  let nests =
    QCheck2.Gen.generate ~rand ~n:property_count (Gen.nest_gen ())
  in
  List.mapi
    (fun idx nest ->
      let ctx = Ujam_core.Analysis_ctx.create ~bound:3 ~machine nest in
      let graph = Ujam_core.Analysis_ctx.graph ctx in
      let depth = Nest.depth nest in
      let candidates =
        List.concat_map
          (fun k -> [ Vec.init depth (fun i -> if i = k then 1 else 0);
                      Vec.init depth (fun i -> if i = k then 2 else 0) ])
          (List.init (max 0 (depth - 1)) Fun.id)
      in
      let legal =
        List.filter_map
          (fun u ->
            match
              Ujam_analysis.Passes.apply_seq ~graph nest
                [ Transform.Unroll u ]
            with
            | Ok (nest', _) ->
                Some (u, { Emit.vname = "u=" ^ Vec.to_string u; nest = nest' })
            | Error _ -> None)
          candidates
      in
      let legal =
        match legal with a :: b :: _ -> [ a; b ] | l -> l
      in
      let spec =
        { Emit.uname = Printf.sprintf "g%03d_%s" idx (Nest.name nest);
          seed = Ujam_sim.Interp.default_seed;
          repeats = 1;
          variants = { Emit.vname = "orig"; nest } :: List.map snd legal }
      in
      (nest, List.map fst legal, spec))
    nests

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k = function
        | x :: rest when k > 0 ->
            let a, b = take (k - 1) rest in
            (x :: a, b)
        | rest -> ([], rest)
      in
      let batch, rest = take n l in
      batch :: chunks n rest

let test_generated_property () =
  with_tc (fun tc ->
      let cases = generated_specs () in
      List.iter
        (fun batch ->
          let specs = List.map (fun (_, _, s) -> s) batch in
          match Native.run_units tc specs with
          | Error msg -> Alcotest.fail msg
          | Ok results ->
              List.iter2
                (fun (nest, us, (spec : Emit.unit_spec)) res ->
                  (* column 3 == column 1: native vs interpreter, per
                     variant, on the variant's own nest *)
                  List.iter
                    (fun (e : Native.equivalence) ->
                      if e.Native.diffs <> [] then
                        Alcotest.failf
                          "%s/%s: native diverges from interpreter (err %g)"
                          spec.Emit.uname e.Native.vname e.Native.max_rel_err)
                    (Native.equivalences spec res);
                  (* column 2 == column 1 where it must hold exactly:
                     a legal unroll whose factors divide the trips
                     preserves every array cell, hence the checksum *)
                  let find v =
                    List.find_opt
                      (fun (o : Native.outcome) ->
                        String.equal o.Native.vname v)
                      res.Native.outcomes
                  in
                  let orig = Option.get (find "orig") in
                  List.iter
                    (fun u ->
                      if Unroll.divides nest u then
                        match find ("u=" ^ Vec.to_string u) with
                        | None -> Alcotest.failf "%s: missing variant" spec.Emit.uname
                        | Some o ->
                            List.iter2
                              (fun (b0, c0) (b1, c1) ->
                                let err =
                                  Float.abs (c0 -. c1)
                                  /. Float.max 1.0 (Float.abs c0)
                                in
                                if b0 <> b1 || err > Native.default_tolerance
                                then
                                  Alcotest.failf
                                    "%s u=%s array %s: orig %h vs unrolled %h"
                                    spec.Emit.uname (Vec.to_string u) b0 c0 c1)
                              orig.Native.checksums o.Native.checksums)
                    us)
                batch results)
        (chunks 50 cases))

(* ---- fault injection: the oracle catches a broken emitter ------------ *)

(* [Fuzz.native ~drop_copy:true] makes the emitter silently drop the last statement
   of every multi-statement body — the classic lost-jammed-copy bug.
   Unrolled variants all have jammed copies, so the native layer must
   flag unexplained mismatches, and the shrinker must hand back a
   reduced reproducer. *)
let test_injected_emitter_bug () =
  with_tc (fun _tc ->
      let open Ujam_oracle in
      let cfg =
        { (Fuzz.default_config ~machine ()) with
          Fuzz.n = 6;
          seed = 43;
          layers = [ Fuzz.native ~drop_copy:true () ];
          shrink = true }
      in
      let r = Fuzz.run cfg in
      Alcotest.(check bool) "injected bug detected" false (Fuzz.ok r);
      Alcotest.(check bool) "unexplained mismatches" true (r.Fuzz.unexplained > 0);
      Alcotest.(check bool)
        "at least one failure shrunk to a reproducer" true
        (List.exists
           (fun (f : Fuzz.failure) -> f.Fuzz.reduced <> None)
           r.Fuzz.failures);
      (* and the uninjected run over the same nests is clean *)
      let clean = Fuzz.run { cfg with Fuzz.layers = [ Fuzz.native () ] } in
      Alcotest.(check bool) "clean without injection" true (Fuzz.ok clean))

(* ---- degradation without a toolchain --------------------------------- *)

let test_skip_without_toolchain () =
  let open Ujam_oracle in
  (* force the no-toolchain path regardless of the host by probing a
     scrubbed PATH; the fuzz layer consults the cached [find], so this
     only checks the probe contract plus the report plumbing types *)
  (match Toolchain.probe ~path:"/nonexistent-ujc-test" () with
  | Ok _ -> Alcotest.fail "scrubbed probe should fail"
  | Error _ -> ());
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 3;
      seed = 7;
      layers = [ Fuzz.native () ];
      shrink = false }
  in
  let r = Fuzz.run cfg in
  (* whichever way discovery went, a native-only run never crashes and
     accounts for every nest as either checked or skipped *)
  Alcotest.(check bool) "no unexplained failures" true (Fuzz.ok r);
  let t =
    snd (List.find (fun (l, _) -> Fuzz.layer_name l = "native") r.Fuzz.tallies)
  in
  Alcotest.(check int) "every nest accounted for" 3
    (if t.Fuzz.skipped > 0 then t.Fuzz.skipped
     else if t.Fuzz.checked > 0 then 3
     else 0)

let suite =
  [ Alcotest.test_case "probe: scrubbed path is a typed error" `Quick
      test_probe_scrubbed;
    Alcotest.test_case "probe: pure and cache-safe" `Quick test_probe_is_pure;
    Alcotest.test_case "pinned: 19 kernels on alpha" `Slow test_pinned_alpha;
    Alcotest.test_case "pinned: 19 kernels on hppa" `Slow test_pinned_hppa;
    Alcotest.test_case "property: 200 generated nests, three columns agree"
      `Slow test_generated_property;
    Alcotest.test_case "oracle catches injected emitter bug" `Slow
      test_injected_emitter_bug;
    Alcotest.test_case "degrades to skip without a toolchain" `Quick
      test_skip_without_toolchain ]
