open Ujam_linalg
open Ujam_reuse

type key = { m : Vec.t; delta : int }

type t = c_from:Vec.t -> c_to:Vec.t -> key option

let solver ~h ~localized ~unroll_levels ~truncate =
  let depth = Mat.cols h in
  let joined = Subspace.join localized (Subspace.span_dims ~dim:depth unroll_levels) in
  let prepared = Subspace.prepare h joined in
  let innermost = depth - 1 in
  fun ~c_from ~c_to ->
    let diff = Vec.sub c_to c_from in
    let diff = if truncate && Vec.dim diff > 0 then Vec.set diff 0 0 else diff in
    match Subspace.solve prepared diff with
    | None -> None
    | Some x ->
        let m =
          Vec.init depth (fun k ->
              if List.mem k unroll_levels then Vec.get x k else 0)
        in
        Some { m; delta = Vec.get x innermost }

let temporal ~h ~localized ~unroll_levels =
  solver ~h ~localized ~unroll_levels ~truncate:false

let spatial ~h ~localized ~unroll_levels =
  solver ~h:(Selfreuse.spatial_matrix h) ~localized ~unroll_levels ~truncate:true

(* Solvability differences add, so placing against roots suffices.
   Components queue in creation order; members are consed and reversed
   once. *)
let components solver ~dim items =
  let comps = Queue.create () in
  List.iter
    (fun (c, x) ->
      match
        Seq.find_map
          (fun (root, members) ->
            Option.map (fun key -> (members, key)) (solver ~c_from:root ~c_to:c))
          (Queue.to_seq comps)
      with
      | Some (members, key) -> members := (x, key) :: !members
      | None -> Queue.add (c, ref [ (x, { m = Vec.zero dim; delta = 0 }) ]) comps)
    items;
  List.of_seq (Seq.map (fun (_, members) -> List.rev !members) (Queue.to_seq comps))

(* [A p] reduced modulo [A b] along the first non-zero coordinate of
   [A b] names [p]'s class; the multiple taken off is its time shift. *)
let floor_div x y =
  let q = x / y in
  if x mod y <> 0 && (x < 0) <> (y < 0) then q - 1 else q

let point_class ~a ~localized =
  let plain p = (Mat.apply a p, 0) in
  match Subspace.basis localized with
  | [] -> plain
  | [ b ] -> (
      let ab = Mat.apply a b in
      let nonzero =
        List.filter (fun i -> Vec.get ab i <> 0) (List.init (Vec.dim ab) Fun.id)
      in
      match nonzero with
      | [] -> plain
      | i0 :: _ ->
          let b_last = Vec.get b (Vec.dim b - 1) in
          fun p ->
            let ap = Mat.apply a p in
            let t = floor_div (Vec.get ap i0) (Vec.get ab i0) in
            (Vec.map2 (fun x y -> x - (t * y)) ap ab, t * b_last))
  | _ -> invalid_arg "Solvers.point_class: localized space of dimension > 1"

let kernel_moves ~h ~localized ~unroll_levels =
  let depth = Mat.cols h in
  let joined = Subspace.join localized (Subspace.span_dims ~dim:depth unroll_levels) in
  let kernel = Subspace.of_basis ~dim:depth (Mat.kernel h) in
  Subspace.basis (Subspace.intersect kernel joined)
  |> List.filter_map (fun v ->
         let projected =
           Vec.init depth (fun k ->
               if List.mem k unroll_levels then Vec.get v k else 0)
         in
         if Vec.is_zero projected then None else Some projected)

let temporal_point_class ~h ~localized = point_class ~a:h ~localized

let spatial_point_class ~h ~localized =
  point_class ~a:(Selfreuse.spatial_matrix h) ~localized
