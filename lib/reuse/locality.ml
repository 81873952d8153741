open Ujam_linalg
open Ujam_ir

type stream = Invariant | Unit_stride | No_reuse

type ugs_cost = {
  ugs : Ugs.t;
  g_t : int;
  g_s : int;
  stream : stream;
  accesses : float;
}

(* [Selfreuse.has_self_temporal], then [has_self_spatial], which past
   the first test only asks for a non-trivial [ker H_s ∩ L]. *)
let stream_of ~localized h =
  if Selfreuse.has_self_temporal ~localized h then Invariant
  else if Subspace.kernel_dim (Selfreuse.spatial_matrix h) localized > 0 then Unit_stride
  else No_reuse

let ugs_cost ?temporal ~localized (u : Ugs.t) =
  let temporal =
    match temporal with Some p -> p | None -> Groups.group_temporal ~localized u
  in
  let g_t = Groups.count temporal in
  (* A spatial class is a union of temporal ones: place their leaders. *)
  let leaders = { u with members = Groups.leaders temporal } in
  let g_s = Groups.count (Groups.group_spatial ~localized leaders) in
  let stream = stream_of ~localized u.Ugs.h in
  fun ~line ->
    if line <= 0 then invalid_arg "Locality.ugs_cost: line size";
    let l = float_of_int line in
    let groups = float_of_int g_s +. (float_of_int (g_t - g_s) /. l) in
    let base =
      match stream with Invariant -> 0.0 | Unit_stride -> 1.0 /. l | No_reuse -> 1.0
    in
    { ugs = u; g_t; g_s; stream; accesses = groups *. base }

let nest_accesses ?groups ~line ~localized nest =
  let groups =
    match groups with Some gs -> gs | None -> Ugs.of_nest nest
  in
  List.fold_left
    (fun acc u -> acc +. (ugs_cost ~line ~localized u).accesses)
    0.0 groups

let rank_outer_loops ?groups ~line nest =
  let d = Nest.depth nest in
  let groups =
    match groups with Some gs -> gs | None -> Ugs.of_nest nest
  in
  let costs =
    List.init (d - 1) (fun level ->
        let localized = Subspace.span_dims ~dim:d [ level; d - 1 ] in
        (level, nest_accesses ~groups ~line ~localized nest))
  in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) costs

let pp_stream ppf s =
  Format.pp_print_string ppf
    (match s with
    | Invariant -> "invariant"
    | Unit_stride -> "unit-stride"
    | No_reuse -> "no-reuse")

let permutation_cost ~line nest perm =
  let permuted = Ujam_ir.Interchange.apply nest perm in
  let d = Nest.depth permuted in
  nest_accesses ~line ~localized:(Subspace.span_dims ~dim:d [ d - 1 ]) permuted

let rank_permutations ~line nest =
  let d = Nest.depth nest in
  Ujam_ir.Interchange.permutations d
  |> List.filter_map (fun perm ->
         match permutation_cost ~line nest perm with
         | cost -> Some (perm, cost)
         | exception Invalid_argument _ -> None)
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
