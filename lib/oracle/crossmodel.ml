open Ujam_ir
open Ujam_core
open Ujam_machine
open Ujam_engine

let dep_note =
  "dependence-based reuse is a coarser approximation than the UGS tables"

(* A measured objective worse than the reference's by more than this is
   a divergence. *)
let eps = 1e-6

let run s =
  let nest = Subject.nest s and machine = Subject.machine s in
  let ctx = Subject.ctx s in
  let space = Analysis_ctx.space ctx in
  (* Measured objective of a candidate: its cell of the subject's
     materialized sweep, which serves both cache flavours and both
     exhaustive reference choices.  A register-infeasible choice is
     infinitely bad — the search is constrained to the FP register
     file. *)
  let objective ~cache (m : Bruteforce.metrics) =
    if m.Bruteforce.registers > machine.Machine.fp_registers then infinity
    else Bruteforce.objective ~cache ~machine m
  in
  (* The exhaustive choice, over the same sweep. *)
  let reference ~cache =
    let u, m = Bruteforce.best_of ~cache ~machine space (Subject.metrics s) in
    (u, objective ~cache m)
  in
  let ref_cache = lazy (reference ~cache:true) in
  let ref_nocache = lazy (reference ~cache:false) in
  List.filter_map
    (fun (module M : Model.MODEL) ->
      if M.name = Model.Brute_force.name then None
      else
        let choice = M.analyze ctx in
        let u = choice.Search.u in
        let reference_u, reference_objective =
          Lazy.force (if M.cache then ref_cache else ref_nocache)
        in
        let objective = objective ~cache:M.cache (Subject.metrics s u) in
        if objective > reference_objective +. eps then
          let explained =
            if M.name = Model.Dep_based.name then Some dep_note else None
          in
          Some
            (Mismatch.make ~nest:(Nest.name nest) ~machine:machine.Machine.name
               ?explained
               (Mismatch.Model_divergence
                  { model = M.name; u; objective; reference_u; reference_objective }))
        else None)
    Model.all

let check ?bound ?max_loops ~machine nest = run (Subject.make ?bound ?max_loops ~machine nest)
