(* Differential oracle: check the UGS tables against materialized
   unrolls, the cache simulator, and the other selection strategies —
   then inject a deliberate table bug and watch it get caught and
   shrunk to a minimal reproducer.

   Run with: dune exec examples/differential_oracle.exe *)

open Ujam_oracle

let machine = Ujam_machine.Presets.alpha

let () =
  (* Layer 1 — recount: materialize every unroll vector of a kernel
     with the real transformation and recount memory ops, registers and
     flops on the unrolled body.  The tables must agree exactly. *)
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let mismatches = Recount.check ~machine nest in
  Format.printf "=== recount (%s) ===@.%d mismatches@.@." (Ujam_ir.Nest.name nest)
    (List.length mismatches);

  (* Layer 2 — sim replay: unroll candidates the tables rank apart and
     replay them through the cache model; predicted order and simulated
     miss counts must not invert. *)
  let o = Simcheck.check ~machine (Ujam_kernels.Kernels.dmxpy0 ~n:24 ()) in
  Format.printf "=== sim replay (dmxpy.0) ===@.%d candidates simulated, %d inversions@.@."
    o.Simcheck.simulated
    (List.length o.Simcheck.mismatches);

  (* Layer 3 — cross-model: every registered strategy's choice, scored
     by materialized recount, against the exhaustive reference. *)
  let divergences = Crossmodel.check ~machine nest in
  Format.printf "=== cross-model (%s) ===@." (Ujam_ir.Nest.name nest);
  if divergences = [] then Format.printf "all models agree@.@."
  else
    List.iter
      (fun m ->
        Format.printf "%a%s@.@." Mismatch.pp m
          (if Mismatch.is_explained m then "  (explained)" else ""))
      divergences;

  (* Fault injection: pretend V_M over-counts by one on every
     non-trivial unroll vector.  The fuzz loop catches it on generated
     nests and shrinks the first failure to a reproducer small enough
     to read — and to paste back into a test. *)
  let perturb u (c : Counts.t) =
    if Ujam_linalg.Vec.is_zero u then c
    else { c with Counts.memory_ops = c.Counts.memory_ops + 1 }
  in
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 10;
      seed = 42;
      layers = [ Fuzz.recount ~perturb () ];
      shrink = true }
  in
  let report = Fuzz.run cfg in
  Format.printf "=== injected bug ===@.caught %d unexplained mismatch(es)@.@."
    report.Fuzz.unexplained;
  match report.Fuzz.failures with
  | { Fuzz.reduced = Some small; _ } :: _ ->
      Format.printf "reduced reproducer:@.%a@.@.rebuild with:@.%s@."
        Ujam_ir.Nest.pp small (Shrink.to_snippet small)
  | _ -> Format.printf "no reproducer (unexpected)@."
