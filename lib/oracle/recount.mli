(** Oracle layer 1: tables vs. materialized unrolls.

    For every vector in the nest's bounded unroll space, compare the
    UGS-table predictions (memory operations after scalar replacement,
    register pressure, flops — the numbers the paper computes without
    unrolling anything) against the subject's sweep ({!Subject.sweep}),
    recounted on each body {!Ujam_ir.Unroll.unroll_and_jam} produces.
    On the supported nest class the two constructions are provably the
    same partition, so any difference is a hard failure — there are no
    "explained" recount mismatches.

    [perturb] post-processes each table prediction before comparison;
    the regression suite uses it to inject a known table bug and assert
    the oracle catches and shrinks it. *)

open Ujam_linalg

val run : ?perturb:(Vec.t -> Counts.t -> Counts.t) -> Subject.t -> Mismatch.t list

val check :
  ?bound:int ->
  ?max_loops:int ->
  ?perturb:(Vec.t -> Counts.t -> Counts.t) ->
  machine:Ujam_machine.Machine.t ->
  Ujam_ir.Nest.t ->
  Mismatch.t list
(** {!run} on a fresh {!Subject.make}; defaults match
    {!Ujam_engine.Engine.analyze}: [bound] 4, [max_loops] 2. *)
