(** Machine presets used by the evaluation.

    [alpha] approximates the DEC Alpha 21064 of Figure 8: dual issue (one
    memory, one FP operation per cycle), 8 KB direct-mapped data cache
    with 32-byte lines, a long miss penalty, 32 FP registers.

    [hppa] approximates the HP PA-RISC 7100 of Figure 9: same issue
    shape but a fused multiply-add (twice the peak flop rate, so machine
    balance 0.5), a large off-chip direct-mapped cache, shorter relative
    miss penalty.

    [generic ()] is a configurable machine for examples and sweeps. *)

val alpha : Machine.t
val hppa : Machine.t

val alpha_mem : Machine.t
(** [alpha] with the memory hierarchy spelled out: 8 KB write-through L1,
    128 KB board L2, 32-entry TLB over 8 KB pages.  Flat fields match
    [alpha] so single-level consumers see the same machine. *)

val hppa_mem : Machine.t
(** [hppa] with an L1 + L2 + TLB hierarchy. *)

val generic :
  ?fp_registers:int -> ?miss_penalty:int -> ?prefetch_bandwidth:float -> unit -> Machine.t

val names : string list
(** Canonical preset names: ["alpha"], ["hppa"], ["alpha-mem"],
    ["hppa-mem"], ["generic"]. *)

val of_name : string -> Machine.t option
(** Case-insensitive lookup by canonical name or alias (["pa-risc"],
    ["alpha_mem"], ["hppa_mem"]); [None] for anything else. *)
