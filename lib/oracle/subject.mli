(** One nest as the oracle layers see it: the nest, one shared
    {!Ujam_core.Analysis_ctx}, and one lazy materialised sweep, the
    Wolf–Maydan–Chen ground truth of every vector of its space.
    {!Fuzz} builds one per checked nest and per shrinker candidate and
    hands it to every layer; nothing outlives it. *)

open Ujam_linalg

type t

val make :
  ?bound:int ->
  ?max_loops:int ->
  ?metrics:(Ujam_ir.Nest.t -> Vec.t -> Ujam_core.Bruteforce.metrics) ->
  machine:Ujam_machine.Machine.t ->
  Ujam_ir.Nest.t ->
  t
(** Computes nothing until read.  [bound]/[max_loops] default to the
    engine's 4/2; [metrics] (default [Bruteforce.metrics ~machine]) is
    for fault injection. *)

val nest : t -> Ujam_ir.Nest.t
val machine : t -> Ujam_machine.Machine.t
val ctx : t -> Ujam_core.Analysis_ctx.t

val sweep : t -> Ujam_core.Bruteforce.metrics array
(** The metrics of every vector of the context's space, at its
    {!Ujam_core.Unroll_space.index}; computed at the first call.  An
    exception computing it is raised again at every call. *)

val metrics : t -> Vec.t -> Ujam_core.Bruteforce.metrics
(** [u]'s cell of {!sweep}; a vector outside the space is measured alone. *)
