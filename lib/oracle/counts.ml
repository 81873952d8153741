open Ujam_linalg
open Ujam_ir

type t = { memory_ops : int; registers : int; flops : int }

let predicted bal u =
  { memory_ops = Ujam_core.Balance.memory_ops bal u;
    registers = Ujam_core.Balance.registers bal u;
    flops = Ujam_core.Balance.flops bal u }

let measured nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  let d = Nest.depth unrolled in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  let summary =
    Ujam_core.Streams.summarize (Ujam_core.Streams.of_body ~localized unrolled)
  in
  { memory_ops = summary.Ujam_core.Streams.memory_ops;
    registers = summary.Ujam_core.Streams.registers;
    flops = Nest.flops_per_iteration unrolled }

let equal a b =
  a.memory_ops = b.memory_ops && a.registers = b.registers && a.flops = b.flops

let fields =
  [ ("memory_ops", fun c -> c.memory_ops);
    ("registers", fun c -> c.registers);
    ("flops", fun c -> c.flops) ]
