type t = { ambient : int; basis : Vec.t list (* canonical RREF rows *) }

(* Unit vectors in ascending order are canonical rows, as the identity's are. *)
let full n = { ambient = n; basis = List.init n (Vec.unit n) }
let trivial n = { ambient = n; basis = [] }

let span_dims ~dim ds =
  let ds = List.sort_uniq Int.compare (List.filter (fun d -> d >= 0 && d < dim) ds) in
  { ambient = dim; basis = List.map (Vec.unit dim) ds }

(* The one non-zero position of a non-zero vector along a coordinate
   axis, or [-1]. *)
let axis v =
  let rec scan i found =
    if i = Vec.dim v then found
    else if Vec.get v i = 0 then scan (i + 1) found
    else if found < 0 then scan (i + 1) i
    else -1
  in
  scan 0 (-1)

let of_basis ~dim vs =
  List.iter
    (fun v -> if Vec.dim v <> dim then invalid_arg "Subspace.of_basis: dimension")
    vs;
  let nonzero = List.filter (fun v -> not (Vec.is_zero v)) vs in
  if List.for_all (fun v -> axis v >= 0) nonzero then span_dims ~dim (List.map axis nonzero)
  else
    let rows = Array.of_list (List.map Vec.to_array nonzero) in
    { ambient = dim; basis = Mat.row_space (Mat.of_rows rows) }

let ambient_dim t = t.ambient
let dim t = List.length t.basis
let basis t = t.basis
let is_trivial t = t.basis = []
let is_full t = dim t = t.ambient

let cols_matrix t = Mat.of_cols t.basis t.ambient

(* [H B y = 0] for the basis [B] of [L] exactly when [B y] is in
   [ker H ∩ L], and [B] has full column rank. *)
let kernel_dim h l =
  if is_trivial l then 0 else dim l - Mat.rank (Mat.mul h (cols_matrix l))

let equal a b = a.ambient = b.ambient && List.equal Vec.equal a.basis b.basis

let join a b =
  if a.ambient <> b.ambient then invalid_arg "Subspace.join: ambient dimension";
  of_basis ~dim:a.ambient (a.basis @ b.basis)

let intersect a b =
  if a.ambient <> b.ambient then invalid_arg "Subspace.intersect: ambient dimension";
  if is_trivial a || is_trivial b then trivial a.ambient
  else begin
    (* x in A ∩ B  iff  x = Ba y1 = Bb y2; solve [Ba | -Bb] (y1,y2) = 0. *)
    let ba = cols_matrix a in
    let bb = cols_matrix b in
    let neg_bb =
      Mat.init ~rows:Mat.(rows bb) ~cols:(Mat.cols bb) (fun i j -> -Mat.get bb i j)
    in
    let combined = Mat.hstack ba neg_bb in
    let ka = dim a in
    let vectors =
      List.map
        (fun k ->
          let y1 = Vec.init ka (Vec.get k) in
          Mat.apply ba y1)
        (Mat.kernel combined)
    in
    of_basis ~dim:a.ambient vectors
  end

(* The elimination of [H B] against [L = span B] depends on [H] and [L]
   alone: run it once on [H B | I], pivoting only on the [H B] columns,
   and keep the row operations [E].  Any right-hand side [c] is then
   [E c]: the rows past the rank must vanish, and the pivot rows give [y]
   with free variables zero — the same pivots, so the same [y], as
   eliminating [H B | c].  Both halves are kept as integers: a row past
   the rank vanishes on [c] exactly when it does with its denominators
   cleared, and [x_i = (B y)_i] is [X_i c / D_i] for [X_i = D_i (B E_p)_i],
   [D_i] the lcm of the denominators of the pivot rows [E_p] that row [i]
   of [B] uses, so [x] is integral exactly when each [D_i] divides
   [X_i c]. *)
type factored = {
  tails : int array array; (* the rows of [E] past the rank, cleared *)
  scales : int array; (* [D_i] *)
  x : int array array; (* [X], rows(B) x rows(H) *)
  bound : int; (* no dot product wraps while every [|c_j| <= bound] *)
}

(* The elimination runs at the first non-zero right-hand side: most UGSs
   have a single member, or a single constant, and never need it.  Two
   domains racing on [factored] compute the same value. *)
type prepared = { h : Mat.t; space : t; mutable factored : factored option }

let prepare h (l : t) =
  if Mat.cols h <> l.ambient then invalid_arg "Subspace.prepare: dimension";
  { h; space = l; factored = None }

(* Integer arithmetic must not wrap: an overflow raises
   [Invalid_argument], never a wrong answer. *)
let overflow () = invalid_arg "Subspace.factor: integer overflow"
let mul_exn a b =
  if a <> 0 && ((a * b) / a <> b || (a = -1 && b = min_int)) then overflow () else a * b
let add_exn a b = if (a >= 0) = (b >= 0) && (a + b >= 0) <> (a >= 0) then overflow () else a + b
let sub_exn a b = if b = min_int then (if a >= 0 then overflow () else a - b) else add_exn a (-b)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm l d = mul_exn (l / gcd l d) d
let row_den row = Array.fold_left (fun l r -> lcm l (Rat.den r)) 1 row
let scaled d r = mul_exn (Rat.num r) (d / Rat.den r)
let abs_sum =
  Array.fold_left (fun s v -> if v = min_int then overflow () else add_exn s (abs v)) 0

let factor p =
  match p.factored with
  | Some f -> f
  | None ->
      let m = Mat.rows p.h and k = dim p.space in
      let hb = Mat.mul p.h (cols_matrix p.space) in
      let aug =
        Array.init m (fun i ->
            Array.init (k + m) (fun j ->
                if j < k then Rat.of_int (Mat.get hb i j)
                else if j - k = i then Rat.one
                else Rat.zero))
      in
      let a, pivots = Mat.rref_rat ~pivot_cols:k aug in
      let e = Array.map (fun row -> Array.sub row k m) a and rank = Array.length pivots in
      let b = Array.of_list (List.map Vec.to_array p.space.basis) and den = Array.map row_den e in
      let n = p.space.ambient in
      let scales = Array.make n 1 and x = Array.make_matrix n m 0 in
      for i = 0 to n - 1 do
        let used f = Array.iteri (fun r pc -> if b.(pc).(i) <> 0 then f r b.(pc).(i)) pivots in
        used (fun r _ -> scales.(i) <- lcm scales.(i) den.(r));
        used (fun r bi ->
            Array.iteri
              (fun j e_rj -> x.(i).(j) <- add_exn x.(i).(j) (mul_exn bi (scaled scales.(i) e_rj)))
              e.(r))
      done;
      let tails = Array.init (m - rank) (fun t -> Array.map (scaled den.(t + rank)) e.(t + rank)) in
      let widest rows = Array.fold_left (fun w row -> max w (abs_sum row)) 1 rows in
      let f = { tails; scales; x; bound = max_int / max (widest x) (widest tails) / 2 } in
      p.factored <- Some f;
      f

let rec within bound (c : int array) j =
  j = Array.length c || (c.(j) <= bound && c.(j) >= -bound && within bound c (j + 1))

(* [row . c] for [c = c1 - c2], its first component zeroed when
   [truncate], read in place; past [bound], in checked arithmetic. *)
let dot_diff row ~big ~truncate (c1 : int array) (c2 : int array) =
  let s = ref 0 in
  for j = (if truncate then 1 else 0) to Array.length row - 1 do
    s :=
      if not big then !s + (row.(j) * (c1.(j) - c2.(j)))
      else if row.(j) = 0 then !s
      else add_exn !s (mul_exn row.(j) (sub_exn c1.(j) c2.(j)))
  done;
  !s

let rec zero_diff j ~truncate (c1 : int array) (c2 : int array) =
  j = Array.length c1
  || ((truncate && j = 0) || c1.(j) = c2.(j)) && zero_diff (j + 1) ~truncate c1 c2

let rec consistent f i ~big ~truncate c1 c2 =
  i = Array.length f.tails
  || dot_diff f.tails.(i) ~big ~truncate c1 c2 = 0 && consistent f (i + 1) ~big ~truncate c1 c2

let rec integral f i ~big ~truncate c1 c2 =
  i = Array.length f.x
  || (f.scales.(i) = 1 || dot_diff f.x.(i) ~big ~truncate c1 c2 mod f.scales.(i) = 0)
     && integral f (i + 1) ~big ~truncate c1 c2

let checked p c = if Array.length c <> Mat.rows p.h then invalid_arg "Subspace.solve: dimension"

let solvable_diff p ~truncate c1 c2 =
  checked p c1;
  checked p c2;
  zero_diff 0 ~truncate c1 c2
  ||
  let f = factor p in
  let big = not (within f.bound c1 0 && within f.bound c2 0) in
  consistent f 0 ~big ~truncate c1 c2 && integral f 0 ~big ~truncate c1 c2

type outcome = No_solution | Fractional | Integral of Vec.t

let outcome p c =
  if Array.for_all (fun x -> x = 0) c then Integral (Vec.zero p.space.ambient)
  else begin
    checked p c;
    let f = factor p and truncate = false and c0 = Array.make (Array.length c) 0 in
    let big = not (within f.bound c 0) in
    let x i = dot_diff f.x.(i) ~big ~truncate c c0 / f.scales.(i) in
    if not (consistent f 0 ~big ~truncate c c0) then No_solution
    else if not (integral f 0 ~big ~truncate c c0) then Fractional
    else Integral (Vec.init p.space.ambient x)
  end

let solve p c =
  match outcome p (Vec.to_array c) with Integral x -> Some x | No_solution | Fractional -> None

let pp ppf t =
  if is_trivial t then Format.fprintf ppf "{0}^%d" t.ambient
  else
    Format.fprintf ppf "span{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Vec.pp)
      t.basis
