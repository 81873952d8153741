open Ujam_linalg
open Ujam_ir

type result = Independent | Dependent of Depvec.t

(* Per-[H] facts of a uniformly generated set: [H] eliminated over the
   whole iteration space, the loops ker H touches and the coupled flag.
   The exact distance components are those untouched by ker H;
   kernel-spanned components vary from instance to instance and become
   Star. *)
type prepared = { solver : Subspace.prepared; touched : bool array; coupled : bool }

let prepare h =
  let touched = Array.make (Mat.cols h) false in
  List.iter
    (fun k -> Array.iteri (fun i x -> if x <> 0 then touched.(i) <- true) (Vec.to_array k))
    (Mat.kernel h);
  { solver = Subspace.prepare h (Subspace.full (Mat.cols h));
    touched;
    coupled = not (Mat.is_separable_siv h) }

(* Distance set of a uniform pair: solutions of H d = rhs. *)
let uniform ~bounds p rhs =
  match Subspace.outcome p.solver rhs with
  | Subspace.No_solution -> Independent
  | Subspace.Fractional ->
      (* A rational solution exists but our particular point is not
         integral: a coupled matrix stays conservative, a separable one
         has no integer solution at all. *)
      if p.coupled then Dependent (Depvec.all_star (Array.length p.touched)) else Independent
  | Subspace.Integral x ->
      let dvec =
        Array.mapi (fun k t -> if t then Depvec.Star else Depvec.Exact (Vec.get x k)) p.touched
      in
      (* An exact component larger than the loop's iteration range rules
         the whole dependence out. *)
      let out_of_range =
        match bounds with
        | None -> false
        | Some bs ->
            Array.exists2
              (fun e (lo, hi) ->
                match e with Depvec.Exact d -> abs d > hi - lo | Depvec.Star -> false)
              dvec bs
      in
      if out_of_range then Independent else Dependent dvec

(* Per-dimension GCD + Banerjee tests for a non-uniform pair: per row,
   the gcd of its coefficients and, with constant bounds, the range of
   [a1 i1 - a2 i2] over the two iteration boxes. *)
let nonuniform ~bounds h1 h2 =
  let depth = Mat.cols h1 in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let row r =
    let g = ref 0 and lo = ref 0 and hi = ref 0 in
    for j = 0 to (2 * depth) - 1 do
      let k = j mod depth in
      let c = if j < depth then Mat.get h1 r k else -Mat.get h2 r k in
      let l, h = match bounds with Some bs -> bs.(k) | None -> (0, 0) in
      g := gcd !g (abs c);
      lo := !lo + (c * if c >= 0 then l else h);
      hi := !hi + (c * if c >= 0 then h else l)
    done;
    (!g, !lo, !hi)
  in
  let rows = Array.init (Mat.rows h1) row in
  let solvable (g, lo, hi) x = (g = 0 || x mod g = 0) && (bounds = None || (lo <= x && x <= hi)) in
  fun rhs ->
    if Array.for_all2 solvable rows rhs then Dependent (Depvec.all_star depth) else Independent

let test ~bounds r1 r2 =
  if not (String.equal (Aref.base r1) (Aref.base r2)) then Independent
  else if Aref.rank r1 <> Aref.rank r2 then
    (* Same array viewed at different ranks: treat conservatively. *)
    Dependent (Depvec.all_star (Aref.depth r1))
  else begin
    let h1 = Aref.h_matrix r1 and h2 = Aref.h_matrix r2 in
    let c1 = Aref.c_vector r1 and c2 = Aref.c_vector r2 in
    if Mat.equal h1 h2 then uniform ~bounds (prepare h1) (Vec.to_array (Vec.sub c1 c2))
    else nonuniform ~bounds h1 h2 (Vec.to_array (Vec.sub c2 c1))
  end
