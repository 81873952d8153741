open Ujam_linalg
open Ujam_reuse

let total = Unroll_space.Table.prefix_sum

(* Merge components, as key offsets from each component's root. *)
let components ~dim ~solver leaders =
  Solvers.components solver ~dim (List.map (fun c -> (c, ())) leaders)
  |> List.map (List.map (fun ((), k) -> k.Solvers.m))

(* Per-copy group table.  T[u'] counts the leaders whose copy at offset
   u' starts a new group: leader j's copy at u' duplicates an earlier
   copy exactly when u' >= d for some merge point d of j — the offset
   difference to a leader with a pointwise-larger key, or a self-merge
   along a kernel direction of the unroll space, possibly shifted by the
   kernel lattice.  Summing T over u' <= u (the paper's Sum) yields the
   group count after unrolling by u. *)
let compute_table space ~solver ~kernel_gens leaders =
  let dim = Unroll_space.depth space in
  let n = List.length leaders in
  let t = Unroll_space.Table.create space n in
  let max_bound = Array.fold_left max 0 (Unroll_space.bounds space) in
  (* Lattice shifts of a base difference: base + sum a_i * g_i for small
     coefficients, keeping non-negative in-space non-zero points. *)
  let variants base =
    let rec expand acc = function
      | [] -> acc
      | g :: rest ->
          let shifted =
            List.concat_map
              (fun v ->
                List.init
                  ((2 * (max_bound + 1)) + 1)
                  (fun a -> Vec.add v (Vec.scale (a - max_bound - 1) g)))
              acc
          in
          expand shifted rest
    in
    expand [ base ] kernel_gens
    |> List.filter (fun v ->
           (not (Vec.is_zero v)) && Unroll_space.mem space v)
  in
  List.iter
    (fun keys ->
      List.iter
        (fun kj ->
          let merge_points =
            List.concat_map (fun ki -> variants (Vec.sub ki kj)) keys
          in
          (* -1 on the union of the upward boxes of the merge points:
             one sweep (or corner update) instead of a per-cell scan. *)
          Unroll_space.Table.add_cover t merge_points (-1))
        keys)
    (components ~dim ~solver leaders);
  t

let orientable v =
  Vec.for_all (fun x -> x >= 0) v || Vec.for_all (fun x -> x <= 0) v

let applicable space ~solver ~kernel_gens leaders =
  List.for_all orientable kernel_gens
  && List.for_all
       (fun keys ->
         List.for_all
           (fun ki ->
             List.for_all (fun kj -> orientable (Vec.sub ki kj)) keys)
           keys)
       (components ~dim:(Unroll_space.depth space) ~solver leaders)

let gts_leaders ~localized (ugs : Ugs.t) =
  List.map
    (fun (s : Ujam_ir.Site.t) -> Ujam_ir.Aref.c_vector s.Ujam_ir.Site.ref_)
    (Groups.leaders (Groups.group_temporal ~localized ugs))

let gss_leaders ~localized (ugs : Ugs.t) =
  List.map
    (fun (s : Ujam_ir.Site.t) -> Ujam_ir.Aref.c_vector s.Ujam_ir.Site.ref_)
    (Groups.leaders (Groups.group_spatial ~localized ugs))

let temporal_solver space ~localized (ugs : Ugs.t) =
  Solvers.temporal ~h:ugs.Ugs.h ~localized
    ~unroll_levels:(Unroll_space.unroll_levels space)

let spatial_solver space ~localized (ugs : Ugs.t) =
  Solvers.spatial ~h:ugs.Ugs.h ~localized
    ~unroll_levels:(Unroll_space.unroll_levels space)

let gts_table space ~localized ugs =
  compute_table space
    ~solver:(temporal_solver space ~localized ugs)
    ~kernel_gens:
      (Solvers.kernel_moves ~h:ugs.Ugs.h ~localized
         ~unroll_levels:(Unroll_space.unroll_levels space))
    (gts_leaders ~localized ugs)

let gss_table space ~localized ugs =
  compute_table space
    ~solver:(spatial_solver space ~localized ugs)
    ~kernel_gens:
      (Solvers.kernel_moves
         ~h:(Ujam_reuse.Selfreuse.spatial_matrix ugs.Ugs.h)
         ~localized
         ~unroll_levels:(Unroll_space.unroll_levels space))
    (gss_leaders ~localized ugs)

let gts_applicable space ~localized ugs =
  applicable space
    ~solver:(temporal_solver space ~localized ugs)
    ~kernel_gens:
      (Solvers.kernel_moves ~h:ugs.Ugs.h ~localized
         ~unroll_levels:(Unroll_space.unroll_levels space))
    (gts_leaders ~localized ugs)
