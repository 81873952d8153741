open Ujam_ir
open Ujam_machine

type result = {
  iterations : int;
  mem_ops_per_iteration : int;
  accesses : int;
  misses : int;
  issue_cycles : float;
  stall_cycles : float;
  cycles : float;
  cycles_per_iteration : float;
}

let run ~machine ?plan ?sites nest =
  let layout = Layout.of_nest nest ~line:machine.Machine.cache_line in
  let cache = Cache.of_machine machine in
  let sites = match sites with Some s -> s | None -> Site.of_nest nest in
  let memory_sites =
    match plan with
    | None -> sites
    | Some p -> List.filter (Ujam_core.Scalar_replace.issues_memory p) sites
  in
  let refs = Array.of_list (List.map (fun (s : Site.t) -> s.Site.ref_) memory_sites) in
  let iterations = Layout.iter_trace layout nest refs (Cache.access_run cache) in
  let mem_ops = Array.length refs in
  let per_iter = Cpu.cycles_per_iteration machine nest ~mem_ops in
  let issue = per_iter *. float_of_int iterations in
  let misses = Cache.misses cache in
  let hidden = machine.Machine.prefetch_bandwidth *. issue in
  let unhidden = Float.max 0.0 (float_of_int misses -. hidden) in
  let stall = unhidden *. float_of_int machine.Machine.miss_penalty in
  { iterations;
    mem_ops_per_iteration = mem_ops;
    accesses = Cache.accesses cache;
    misses;
    issue_cycles = issue;
    stall_cycles = stall;
    cycles = issue +. stall;
    cycles_per_iteration =
      (if iterations = 0 then 0.0 else (issue +. stall) /. float_of_int iterations) }

let run_levels ?steal_lines ~machine ?sites nest =
  let layout = Layout.of_nest nest ~line:machine.Machine.cache_line in
  let hierarchy = Cache.Hierarchy.of_machine ?steal_lines machine in
  let sites = match sites with Some s -> s | None -> Site.of_nest nest in
  let refs = Array.of_list (List.map (fun (s : Site.t) -> s.Site.ref_) sites) in
  let writes = Array.of_list (List.map Site.is_write sites) in
  ignore (Layout.iter_trace layout nest refs (Cache.Hierarchy.access_run hierarchy ~writes));
  Cache.Hierarchy.stats hierarchy

let normalized ~baseline r =
  if baseline.cycles = 0.0 then 1.0 else r.cycles /. baseline.cycles

let pp ppf r =
  Format.fprintf ppf
    "iterations=%d mem/iter=%d accesses=%d misses=%d issue=%.0f stall=%.0f \
     cycles=%.0f (%.2f/iter)"
    r.iterations r.mem_ops_per_iteration r.accesses r.misses r.issue_cycles
    r.stall_cycles r.cycles r.cycles_per_iteration
