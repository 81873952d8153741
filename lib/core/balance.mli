(** Loop balance as a function of the unroll vector (Sec. 3.2–3.3).

    [prepare] builds every table once from the UGS structure; evaluating
    a candidate unroll vector afterwards is a table lookup — this is the
    paper's replacement for re-analysing an unrolled body per candidate.

    With [cache:true] (the paper's model), unserviced cache misses are
    charged at [C_m / C_s] memory-operation equivalents; prefetch
    bandwidth hides [pi * cycles] of them per iteration.  With
    [cache:false] the model of [Carr–Kennedy TOPLAS'94] is used instead:
    every access is assumed to hit. *)

open Ujam_linalg

type t

val prepare :
  ?groups:Ujam_reuse.Ugs.t list ->
  machine:Ujam_machine.Machine.t ->
  Unroll_space.t ->
  Ujam_ir.Nest.t ->
  t
(** [groups] supplies a precomputed UGS partition of the nest (e.g. from
    {!Analysis_ctx}); without it the partition is rebuilt here. *)

val space : t -> Unroll_space.t
val machine : t -> Ujam_machine.Machine.t

val map_registers : t -> (Ujam_linalg.Vec.t -> int -> int) -> t
(** [map_registers t f] rebuilds the register table with [f u r] at
    every cell, sharing all other tables — a fault-injection hook for
    the analyzer's monotonicity guard and the differential oracle. *)

val flops : t -> Vec.t -> int
(** [V_F(u)]: floating-point operations per unrolled iteration. *)

val memory_ops : t -> Vec.t -> int
(** [V_M(u)]: memory operations per unrolled iteration after scalar
    replacement. *)

val registers : t -> Vec.t -> int
(** [R(u)]: floating-point registers scalar replacement needs. *)

val misses : t -> Vec.t -> float
(** Cache misses per unrolled iteration (Equation 1 over all UGSs). *)

val misses_with : ?line:int -> t -> Vec.t -> float
(** {!misses} folded at another line size.  The per-UGS tables are
    line-independent, so one [prepare] prices every hierarchy level. *)

val cycles : t -> Vec.t -> float
(** Steady-state issue-bound cycles per unrolled iteration. *)

val loop_balance : t -> cache:bool -> Vec.t -> float

val loop_balance_level :
  t -> level:Ujam_machine.Machine.Level.t -> Vec.t -> float
(** The cache balance priced at one hierarchy level: misses at the
    level's line, charged [penalty / access].  On the flat machine's
    synthesized L1 ({!Ujam_machine.Machine.effective_levels}) this
    coincides with [loop_balance ~cache:true]. *)

val group_counts : t -> Vec.t -> (string * int * int) list
(** Per UGS: base name, [g_T(u)], [g_S(u)] — exposed for reporting. *)
