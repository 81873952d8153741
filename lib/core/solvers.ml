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

let reducer ~a ~localized =
  match Subspace.basis localized with
  | [] -> fun _ -> 0
  | [ b ] -> (
      let ab = Vec.to_array (Mat.apply a b) and b_last = Vec.get b (Vec.dim b - 1) in
      match List.find_opt (fun i -> ab.(i) <> 0) (List.init (Array.length ab) Fun.id) with
      | None -> fun _ -> 0
      | Some i0 ->
          fun key ->
            let t = floor_div key.(i0) ab.(i0) in
            for r = 0 to Array.length key - 1 do
              key.(r) <- key.(r) - (t * ab.(r))
            done;
            t * b_last)
  | _ -> invalid_arg "Solvers.point_class: localized space of dimension > 1"

(* [A (m + o)] is [A m] plus the columns of [A] weighted by [o]'s
   coordinates, [o] stepping through the space in lex order; the key is
   reduced in one scratch array and looked up without allocating, and
   copied only when its class is new, and kept as the class's key. *)
let point_classes ~a ~localized space ms =
  let rows = Mat.rows a and d = Unroll_space.depth space and card = Unroll_space.card space in
  let reduce = reducer ~a ~localized in
  let cols = Array.init d (fun k -> Vec.to_array (Mat.col a k)) in
  let ams = Array.of_list (List.map (fun m -> Vec.to_array (Mat.apply a m)) ms) in
  let n = Array.length ams * card in
  let cls = Array.make n 0 and shift = Array.make n 0 in
  let key = Array.make rows 0 and o = Array.make d 0 and classes = Hashtbl.create 16 in
  for j = 0 to n - 1 do
    for r = 0 to rows - 1 do
      key.(r) <- ams.(j / card).(r);
      for k = 0 to d - 1 do
        key.(r) <- key.(r) + (cols.(k).(r) * o.(k))
      done
    done;
    let s = reduce key in
    (match Hashtbl.find classes key with
    | c, s0 ->
        cls.(j) <- c;
        shift.(j) <- s - s0
    | exception Not_found ->
        cls.(j) <- Hashtbl.length classes;
        Hashtbl.add classes (Array.copy key) (Hashtbl.length classes, s));
    Unroll_space.next space o
  done;
  let keys = Array.make (Hashtbl.length classes) [||] in
  Hashtbl.iter (fun key (c, _) -> keys.(c) <- key) classes;
  (keys, cls, shift)

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
