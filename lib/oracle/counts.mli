(** The quantities the differential oracle compares: per-unrolled-
    iteration memory operations (after scalar replacement), floating-
    point registers, and floating-point operations.

    [predicted] reads the UGS-table side ({!Ujam_core.Balance}) — the
    numbers the paper computes without ever materialising an unrolled
    body.  [of_metrics] reads the Wolf–Maydan–Chen ground truth, a
    materialised unroll recounted ({!Ujam_core.Bruteforce.metrics}). *)

open Ujam_linalg

type t = { memory_ops : int; registers : int; flops : int }

val predicted : Ujam_core.Balance.t -> Vec.t -> t
val of_metrics : Ujam_core.Bruteforce.metrics -> t
val equal : t -> t -> bool

val fields : (string * (t -> int)) list
(** Named accessors, for per-field mismatch reports. *)
