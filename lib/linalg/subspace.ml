type t = { ambient : int; basis : Vec.t list (* canonical RREF rows *) }

let of_basis ~dim vs =
  List.iter
    (fun v -> if Vec.dim v <> dim then invalid_arg "Subspace.of_basis: dimension")
    vs;
  let nonzero = List.filter (fun v -> not (Vec.is_zero v)) vs in
  let basis =
    match nonzero with
    | [] -> []
    | vs -> Mat.row_space (Mat.of_rows (Array.of_list (List.map Vec.to_array vs)))
  in
  { ambient = dim; basis }

(* Unit vectors in ascending order are canonical rows, as the identity's are. *)
let full n = { ambient = n; basis = List.init n (Vec.unit n) }
let trivial n = { ambient = n; basis = [] }

let span_dims ~dim ds =
  let ds = List.sort_uniq Int.compare (List.filter (fun d -> d >= 0 && d < dim) ds) in
  { ambient = dim; basis = List.map (Vec.unit dim) ds }

let ambient_dim t = t.ambient
let dim t = List.length t.basis
let basis t = t.basis
let is_trivial t = t.basis = []
let is_full t = dim t = t.ambient

let cols_matrix t = Mat.of_cols t.basis t.ambient

let mem v t =
  if Vec.dim v <> t.ambient then invalid_arg "Subspace.mem: dimension";
  if Vec.is_zero v then true
  else if is_trivial t then false
  else Option.is_some (Mat.solve_rat (cols_matrix t) v)

(* [H B y = 0] for the basis [B] of [L] exactly when [B y] is in
   [ker H ∩ L], and [B] has full column rank. *)
let kernel_dim h l =
  if is_trivial l then 0 else dim l - Mat.rank (Mat.mul h (cols_matrix l))

let equal a b = a.ambient = b.ambient && List.equal Vec.equal a.basis b.basis
let subset a b = a.ambient = b.ambient && List.for_all (fun v -> mem v b) a.basis

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
   eliminating [H B | c]. *)
type factored = {
  b : int array array; (* the basis vectors of [L], as arrays *)
  pivots : int array; (* the [y] component each pivot row solves for *)
  e : Rat.t array array; (* rows(H) x rows(H) *)
}

(* The elimination runs at the first non-zero right-hand side: most UGSs
   have a single member, or a single constant, and never need it.  Two
   domains racing on [factored] compute the same value. *)
type prepared = { h : Mat.t; space : t; mutable factored : factored option }

let prepare h (l : t) =
  if Mat.cols h <> l.ambient then invalid_arg "Subspace.prepare: dimension";
  { h; space = l; factored = None }

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
      let f =
        { b = Array.of_list (List.map Vec.to_array p.space.basis);
          pivots;
          e = Array.map (fun row -> Array.sub row k m) a }
      in
      p.factored <- Some f;
      f

let solve_rat p c =
  let n = p.space.ambient in
  if Vec.is_zero c then Some (Array.make n Rat.zero)
  else begin
    let m = Mat.rows p.h in
    if Vec.dim c <> m then invalid_arg "Subspace.solve: dimension";
    let f = factor p in
    (* the entries of [E c], and of [x = B y], summed in index order *)
    let dot row v =
      let s = ref Rat.zero in
      Array.iteri
        (fun j r ->
          if v j <> 0 && not (Rat.is_zero r) then s := Rat.add !s (Rat.mul r (Rat.of_int (v j))))
        row;
      !s
    in
    let ec i = dot f.e.(i) (Vec.get c) in
    let rank = Array.length f.pivots in
    let rec consistent i = i >= m || (Rat.is_zero (ec i) && consistent (i + 1)) in
    if not (consistent rank) then None
    else begin
      let y = Array.make (Array.length f.b) Rat.zero in
      Array.iteri (fun prow pcol -> y.(pcol) <- ec prow) f.pivots;
      Some (Array.init n (fun i -> dot y (fun j -> f.b.(j).(i))))
    end
  end

let solve p c =
  if Vec.is_zero c then Some (Vec.zero p.space.ambient)
  else
    match solve_rat p c with
    | None -> None
    | Some x ->
        (* x = B y must be integral to be an iteration-space vector. *)
        if Array.for_all Rat.is_integer x then
          Some (Vec.make (Array.map Rat.to_int_exn x))
        else None

let solution_in h c l = solve (prepare h l) c

let solvable_in h c l = Option.is_some (solution_in h c l)

let pp ppf t =
  if is_trivial t then Format.fprintf ppf "{0}^%d" t.ambient
  else
    Format.fprintf ppf "span{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Vec.pp)
      t.basis
