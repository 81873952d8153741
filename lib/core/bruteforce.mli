(** The Wolf–Maydan–Chen-style brute-force baseline (Sec. 2, [2]).

    For every candidate unroll vector the loop body is actually
    materialised with {!Ujam_ir.Unroll.unroll_and_jam} and re-analysed
    from scratch.  It serves two purposes: it is the comparator whose
    cost the paper's tables avoid, and it is the ground truth the table
    computations are tested against. *)

open Ujam_linalg

type metrics = {
  streams : int;
  memory_ops : int;
  registers : int;
  flops : int;
  misses : float;
  balance_cache : float;
  balance_nocache : float;
}

val of_summary :
  machine:Ujam_machine.Machine.t -> Streams.summary -> flops:int -> misses:float -> metrics
(** Both balances of a body from its streams, flops and misses. *)

val objective : cache:bool -> machine:Ujam_machine.Machine.t -> metrics -> float
(** Distance of the body's balance from the machine's. *)

val metrics : machine:Ujam_machine.Machine.t -> Ujam_ir.Nest.t -> Vec.t -> metrics
(** Materialise [nest] unrolled by [u] and measure it. *)

val best_of :
  cache:bool ->
  machine:Ujam_machine.Machine.t ->
  Unroll_space.t ->
  (Vec.t -> metrics) ->
  Vec.t * metrics
(** The register-feasible vector nearest machine balance, then with
    fewer copies, then lex-first; the zero vector if none is feasible. *)

val best :
  cache:bool ->
  machine:Ujam_machine.Machine.t ->
  Unroll_space.t ->
  Ujam_ir.Nest.t ->
  Vec.t * metrics
(** {!best_of} over {!metrics}, same objective and tie-breaks as
    {!Search.best}. *)
