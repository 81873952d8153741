open Ujam_linalg
open Ujam_ir
open Ujam_reuse
open Ujam_machine

type metrics = {
  streams : int;
  memory_ops : int;
  registers : int;
  flops : int;
  misses : float;
  balance_cache : float;
  balance_nocache : float;
}

let of_summary ~machine (s : Streams.summary) ~flops ~misses =
  let v_m = float_of_int s.Streams.memory_ops in
  let v_f = float_of_int flops in
  let balance_nocache = if v_f = 0.0 then infinity else v_m /. v_f in
  let balance_cache =
    if v_f = 0.0 then infinity
    else begin
      let cycles =
        Float.max
          (v_m /. float_of_int machine.Machine.mem_issue)
          (v_f /. float_of_int machine.Machine.fp_issue)
      in
      let serviced = machine.Machine.prefetch_bandwidth *. cycles in
      let unserviced = Float.max 0.0 (misses -. serviced) in
      (v_m +. (unserviced *. Machine.miss_ratio_cost machine)) /. v_f
    end
  in
  { streams = s.Streams.streams;
    memory_ops = s.Streams.memory_ops;
    registers = s.Streams.registers;
    flops;
    misses;
    balance_cache;
    balance_nocache }

let objective ~cache ~machine m =
  Float.abs ((if cache then m.balance_cache else m.balance_nocache) -. Machine.balance machine)

let metrics ~machine nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  let d = Nest.depth unrolled in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  (* One prepared solve and one temporal partition per UGS serve both the
     streams and Equation 1. *)
  let per_ugs =
    List.map
      (fun (g : Ugs.t) ->
        let solver = Subspace.prepare g.Ugs.h localized in
        let temporal = Groups.temporal_partition solver g in
        let cost =
          Locality.ugs_cost ~temporal ~line:machine.Machine.cache_line ~localized g
        in
        let invariant = cost.Locality.stream = Locality.Invariant in
        (Streams.of_partition solver ~invariant g temporal, cost.Locality.accesses))
      (Ugs.of_nest unrolled)
  in
  let misses = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 per_ugs in
  of_summary ~machine
    (Streams.summarize (List.concat_map fst per_ugs))
    ~flops:(Nest.flops_per_iteration unrolled) ~misses

let best_of ~cache ~machine space measure =
  let objective = objective ~cache ~machine in
  let best = ref None in
  Unroll_space.iter space (fun u ->
      let m = measure u in
      if m.registers <= machine.Machine.fp_registers then
        match !best with
        | None -> best := Some (u, m)
        | Some (bu, bm) ->
            let c = Float.compare (objective m) (objective bm) in
            let wins =
              if c <> 0 then c < 0
              else
                let c = compare (Unroll_space.copies u) (Unroll_space.copies bu) in
                if c <> 0 then c < 0 else Vec.compare u bu < 0
            in
            if wins then best := Some (u, m));
  match !best with
  | Some r -> r
  | None ->
      let u0 = Vec.zero (Unroll_space.depth space) in
      (u0, measure u0)

let best ~cache ~machine space nest = best_of ~cache ~machine space (metrics ~machine nest)
