(* The prepared solve and the class scan as they were before the integer
   apply: [H B] eliminated against [L] with the row operations [E] kept as
   rationals, every right-hand side solved in [Rat] arithmetic, and each
   member placed against the class leaders through [Vec.sub], [Vec.set]
   and a [Queue] of cells.  The library's integer path must agree with
   them exactly.  [mat_solve_rat], [mem] and [subset], which only tests
   use, live here too. *)

open Ujam_linalg
open Ujam_ir
open Ujam_reuse

(* A rational solution of [m x = c] (free variables zero), or [None] if
   the system is inconsistent: Gauss-Jordan on [m | c], the library's
   full-space solve before the integer prepared path replaced it. *)
let mat_solve_rat m c =
  let rows = Mat.rows m and n = Mat.cols m in
  if Vec.dim c <> rows then invalid_arg "mat_solve_rat: dimension";
  let aug =
    Array.init rows (fun i ->
        Array.init (n + 1) (fun j ->
            Rat.of_int (if j < n then Mat.get m i j else Vec.get c i)))
  in
  let a, pivots = Mat.rref_rat aug in
  if Array.exists (fun p -> p = n) pivots then None
  else begin
    let x = Array.make n Rat.zero in
    Array.iteri (fun prow pcol -> x.(pcol) <- a.(prow).(n)) pivots;
    Some x
  end

type prepared = {
  n : int;
  m : int;
  b : int array array;
  pivots : int array;
  e : Rat.t array array;
}

let prepare h l =
  let m = Mat.rows h and k = Subspace.dim l in
  let hb = Mat.mul h (Mat.of_cols (Subspace.basis l) (Subspace.ambient_dim l)) in
  let aug =
    Array.init m (fun i ->
        Array.init (k + m) (fun j ->
            if j < k then Rat.of_int (Mat.get hb i j)
            else if j - k = i then Rat.one
            else Rat.zero))
  in
  let a, pivots = Mat.rref_rat ~pivot_cols:k aug in
  { n = Subspace.ambient_dim l;
    m;
    b = Array.of_list (List.map Vec.to_array (Subspace.basis l));
    pivots;
    e = Array.map (fun row -> Array.sub row k m) a }

let solve_rat p c =
  if Vec.is_zero c then Some (Array.make p.n Rat.zero)
  else begin
    let dot row v =
      let s = ref Rat.zero in
      Array.iteri
        (fun j r ->
          if v j <> 0 && not (Rat.is_zero r) then s := Rat.add !s (Rat.mul r (Rat.of_int (v j))))
        row;
      !s
    in
    let ec i = dot p.e.(i) (Vec.get c) in
    let rank = Array.length p.pivots in
    let rec consistent i = i >= p.m || (Rat.is_zero (ec i) && consistent (i + 1)) in
    if not (consistent rank) then None
    else begin
      let y = Array.make (Array.length p.b) Rat.zero in
      Array.iteri (fun prow pcol -> y.(pcol) <- ec prow) p.pivots;
      Some (Array.init p.n (fun i -> dot y (fun j -> p.b.(j).(i))))
    end
  end

let solve p c =
  match solve_rat p c with
  | Some x when Array.for_all Rat.is_integer x -> Some (Vec.make (Array.map Rat.to_int_exn x))
  | Some _ | None -> None

(* What [Test_pair.uniform] reads of a right-hand side. *)
let outcome p c : Subspace.outcome =
  match solve_rat p c with
  | None -> Subspace.No_solution
  | Some x when Array.for_all Rat.is_integer x ->
      Subspace.Integral (Vec.make (Array.map Rat.to_int_exn x))
  | Some _ -> Subspace.Fractional

(* Membership and inclusion by a rational solve against the basis, as
   the library had them before its last caller went. *)
let mem v l =
  if Vec.dim v <> Subspace.ambient_dim l then invalid_arg "Subspace.mem: dimension";
  Vec.is_zero v
  || (not (Subspace.is_trivial l))
     && Option.is_some (mat_solve_rat (Mat.of_cols (Subspace.basis l) (Subspace.ambient_dim l)) v)

let subset a b =
  Subspace.ambient_dim a = Subspace.ambient_dim b
  && List.for_all (fun v -> mem v b) (Subspace.basis a)

type cell = { leader : Vec.t; mutable members : Site.t list (* reversed *) }

let partition_sites ~merges (u : Ugs.t) =
  let sorted =
    List.stable_sort
      (fun (a : Site.t) (b : Site.t) ->
        Vec.compare (Aref.c_vector a.Site.ref_) (Aref.c_vector b.Site.ref_))
      u.Ugs.members
  in
  let cells = Queue.create () in
  List.iter
    (fun (s : Site.t) ->
      let c = Aref.c_vector s.Site.ref_ in
      match Seq.find (fun cell -> merges ~c1:c ~c2:cell.leader) (Queue.to_seq cells) with
      | Some cell -> cell.members <- s :: cell.members
      | None -> Queue.add { leader = c; members = [ s ] } cells)
    sorted;
  List.of_seq (Seq.map (fun cell -> List.rev cell.members) (Queue.to_seq cells))

let group_temporal ~localized (u : Ugs.t) =
  let p = prepare u.Ugs.h localized in
  partition_sites ~merges:(fun ~c1 ~c2 -> Option.is_some (solve p (Vec.sub c1 c2))) u

let group_spatial ~localized (u : Ugs.t) =
  let p = prepare (Selfreuse.spatial_matrix u.Ugs.h) localized in
  partition_sites
    ~merges:(fun ~c1 ~c2 -> Option.is_some (solve p (Vec.set (Vec.sub c1 c2) 0 0)))
    u
