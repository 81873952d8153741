open Ujam_linalg
open Ujam_reuse
open Ujam_machine
module Obs = Ujam_obs.Obs

(* Wall time of one [prepare]: the whole analytic cost of a nest is
   table construction. *)
let h_build = Obs.histogram "tables.build_s"

type ugs_tables = {
  ugs : Ugs.t;
  stream : Locality.stream;
  gts : Unroll_space.Table.t;  (* totals per cell *)
  gss : Unroll_space.Table.t;
}

type t = {
  space : Unroll_space.t;
  machine : Machine.t;
  flops_body : int;
  mem_table : Unroll_space.Table.t;
  reg_table : Unroll_space.Table.t;
  groups : ugs_tables list;
}

let prepare ?groups ~machine space nest =
  let t0 = Obs.now () in
  let d = Ujam_ir.Nest.depth nest in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  let partition =
    match groups with Some gs -> gs | None -> Ugs.of_nest nest
  in
  (* One temporal partition per UGS fills its g_T, g_S, V_M and R. *)
  let unrolled = Streams.create_tables space in
  let build_group (g : Ugs.t) =
    let gts, gss = Streams.add_unrolled unrolled ~localized g in
    { ugs = g; stream = Locality.stream_of ~localized g.Ugs.h; gts; gss }
  in
  let groups = List.map build_group partition in
  let t = {
    space;
    machine;
    flops_body = Ujam_ir.Nest.flops_per_iteration nest;
    mem_table = unrolled.Streams.mem_table;
    reg_table = unrolled.Streams.reg_table;
    groups }
  in
  Obs.Histogram.record h_build (Obs.now () -. t0);
  t

let space t = t.space
let machine t = t.machine

(* Fault-injection hook for the monotonicity-guard tests: rebuild the
   register table pointwise through [f].  Everything else is shared. *)
let map_registers t f =
  let reg = Unroll_space.Table.create t.space 0 in
  Unroll_space.iter t.space (fun u ->
      Unroll_space.Table.set reg u (f u (Unroll_space.Table.get t.reg_table u)));
  { t with reg_table = reg }

let flops t u = t.flops_body * Unroll_space.copies u
let memory_ops t u = Unroll_space.Table.get t.mem_table u
let registers t u = Unroll_space.Table.get t.reg_table u

(* The per-UGS g_T/g_S tables are line-independent; the line enters
   only at fold time, so the same tables price any hierarchy level. *)
let misses_with ?line t u =
  let l =
    float_of_int
      (match line with Some l -> l | None -> t.machine.Machine.cache_line)
  in
  List.fold_left
    (fun acc g ->
      let g_t = Unroll_space.Table.get g.gts u in
      let g_s = Unroll_space.Table.get g.gss u in
      let groups = float_of_int g_s +. (float_of_int (g_t - g_s) /. l) in
      let base =
        match g.stream with
        | Locality.Invariant -> 0.0
        | Locality.Unit_stride -> 1.0 /. l
        | Locality.No_reuse -> 1.0
      in
      acc +. (groups *. base))
    0.0 t.groups

let misses t u = misses_with t u

let cycles t u =
  let m = t.machine in
  Float.max
    (float_of_int (memory_ops t u) /. float_of_int m.Machine.mem_issue)
    (float_of_int (flops t u) /. float_of_int m.Machine.fp_issue)

let loop_balance t ~cache u =
  let v_m = float_of_int (memory_ops t u) in
  let v_f = float_of_int (flops t u) in
  if v_f = 0.0 then infinity
  else if not cache then v_m /. v_f
  else begin
    let m = misses t u in
    let serviced = t.machine.Machine.prefetch_bandwidth *. cycles t u in
    let unserviced = Float.max 0.0 (m -. serviced) in
    (v_m +. (unserviced *. Machine.miss_ratio_cost t.machine)) /. v_f
  end

(* Same balance shape, priced at one hierarchy level: misses at that
   level's line, each unserviced miss charged its penalty over its
   access time.  With the flat machine's synthesized L1 this reduces to
   [loop_balance ~cache:true]. *)
let loop_balance_level t ~(level : Machine.Level.t) u =
  let v_m = float_of_int (memory_ops t u) in
  let v_f = float_of_int (flops t u) in
  if v_f = 0.0 then infinity
  else begin
    let m = misses_with ~line:level.Machine.Level.line t u in
    let serviced = t.machine.Machine.prefetch_bandwidth *. cycles t u in
    let unserviced = Float.max 0.0 (m -. serviced) in
    let cost =
      float_of_int level.Machine.Level.penalty
      /. float_of_int level.Machine.Level.access
    in
    (v_m +. (unserviced *. cost)) /. v_f
  end

let group_counts t u =
  List.map
    (fun g ->
      (g.ugs.Ugs.base, Unroll_space.Table.get g.gts u, Unroll_space.Table.get g.gss u))
    t.groups
