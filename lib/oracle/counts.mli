(** The quantities the differential oracle compares: per-unrolled-
    iteration memory operations (after scalar replacement), floating-
    point registers, and floating-point operations.

    [predicted] reads the UGS-table side ({!Ujam_core.Balance}) — the
    numbers the paper computes without ever materialising an unrolled
    body.  [measured] is the Wolf–Maydan–Chen ground truth: materialise
    the unroll with {!Ujam_ir.Unroll.unroll_and_jam} and recount on the
    unrolled body's value streams. *)

open Ujam_linalg

type t = { memory_ops : int; registers : int; flops : int }

val predicted : Ujam_core.Balance.t -> Vec.t -> t

val measured : Ujam_ir.Nest.t -> Vec.t -> t
(** Materialise [nest] unrolled by [u] and recount (innermost-localized,
    as everywhere in the pipeline). *)

val equal : t -> t -> bool

val fields : (string * (t -> int)) list
(** Named accessors, for per-field mismatch reports. *)
