type t = { memory_ops : int; registers : int; flops : int }

let predicted bal u =
  { memory_ops = Ujam_core.Balance.memory_ops bal u;
    registers = Ujam_core.Balance.registers bal u;
    flops = Ujam_core.Balance.flops bal u }

let of_metrics (m : Ujam_core.Bruteforce.metrics) =
  { memory_ops = m.memory_ops; registers = m.registers; flops = m.flops }

let equal a b =
  a.memory_ops = b.memory_ops && a.registers = b.registers && a.flops = b.flops

let fields =
  [ ("memory_ops", fun c -> c.memory_ops);
    ("registers", fun c -> c.registers);
    ("flops", fun c -> c.flops) ]
