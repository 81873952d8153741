open Ujam_linalg

let v = Vec.of_list
let space = Alcotest.testable Subspace.pp Subspace.equal

(* An integral [x] in [L] with [H x = c]: the prepared solve of one
   right-hand side. *)
let solution_in h c l = Subspace.solve (Subspace.prepare h l) c
let solvable_in h c l = Option.is_some (solution_in h c l)

let test_construction () =
  Alcotest.(check int) "full dim" 3 (Subspace.dim (Subspace.full 3));
  Alcotest.(check int) "trivial dim" 0 (Subspace.dim (Subspace.trivial 3));
  Alcotest.(check bool) "trivial" true (Subspace.is_trivial (Subspace.trivial 2));
  Alcotest.(check bool) "full" true (Subspace.is_full (Subspace.full 2));
  Alcotest.(check int) "dependent spanning set" 1
    (Subspace.dim (Subspace.of_basis ~dim:2 [ v [ 1; 2 ]; v [ 2; 4 ] ]));
  Alcotest.(check int) "span_dims" 2
    (Subspace.dim (Subspace.span_dims ~dim:4 [ 1; 3 ]))

let test_membership () =
  let l = Subspace.of_basis ~dim:3 [ v [ 1; 1; 0 ]; v [ 0; 0; 1 ] ] in
  Alcotest.(check bool) "member" true (Solve_reference.mem (v [ 2; 2; 5 ]) l);
  Alcotest.(check bool) "zero always member" true (Solve_reference.mem (v [ 0; 0; 0 ]) l);
  Alcotest.(check bool) "non-member" false (Solve_reference.mem (v [ 1; 0; 0 ]) l);
  Alcotest.(check bool) "rational combination member" true
    (Solve_reference.mem (v [ 1; 1; 0 ]) (Subspace.of_basis ~dim:3 [ v [ 2; 2; 0 ] ]))

let test_canonical_equality () =
  Alcotest.check space "different bases, same space"
    (Subspace.of_basis ~dim:2 [ v [ 1; 0 ]; v [ 1; 1 ] ])
    (Subspace.of_basis ~dim:2 [ v [ 0; 1 ]; v [ 1; 0 ] ]);
  Alcotest.(check bool) "subset" true
    (Solve_reference.subset
       (Subspace.of_basis ~dim:3 [ v [ 1; 1; 0 ] ])
       (Subspace.span_dims ~dim:3 [ 0; 1 ]))

let test_intersect_join () =
  let xy = Subspace.span_dims ~dim:3 [ 0; 1 ] in
  let yz = Subspace.span_dims ~dim:3 [ 1; 2 ] in
  Alcotest.check space "intersect coordinate planes"
    (Subspace.span_dims ~dim:3 [ 1 ])
    (Subspace.intersect xy yz);
  Alcotest.check space "join spans everything" (Subspace.full 3) (Subspace.join xy yz);
  Alcotest.check space "intersect with trivial" (Subspace.trivial 3)
    (Subspace.intersect xy (Subspace.trivial 3));
  (* non-coordinate intersection *)
  let a = Subspace.of_basis ~dim:2 [ v [ 1; 1 ] ] in
  let b = Subspace.of_basis ~dim:2 [ v [ 1; -1 ] ] in
  Alcotest.check space "lines intersect trivially" (Subspace.trivial 2)
    (Subspace.intersect a b);
  Alcotest.check space "line with itself" a (Subspace.intersect a a)

let test_solvable_in () =
  (* A(I,J) vs A(I,J+2): H = identity, difference (0,2), localized = J *)
  let h = Mat.identity 2 in
  let lj = Subspace.span_dims ~dim:2 [ 1 ] in
  Alcotest.(check bool) "solvable within localized loop" true
    (solvable_in h (v [ 0; 2 ]) lj);
  Alcotest.(check bool) "not solvable across the other loop" false
    (solvable_in h (v [ 2; 0 ]) lj);
  (match solution_in h (v [ 0; 2 ]) lj with
  | Some x -> Alcotest.(check bool) "witness" true (Vec.equal x (v [ 0; 2 ]))
  | None -> Alcotest.fail "expected witness");
  (* zero difference always solvable, even in the trivial space *)
  Alcotest.(check bool) "zero diff" true
    (solvable_in h (v [ 0; 0 ]) (Subspace.trivial 2));
  (* integrality: 2x = 1 unsolvable over integers *)
  Alcotest.(check bool) "non-integral rejected" false
    (solvable_in (Mat.of_rows_list [ [ 2 ] ]) (v [ 1 ]) (Subspace.full 1));
  (* coupled subscript: H = [1 1], difference 3, localized span (1,-1)
     cannot reach it but the full space can *)
  let hc = Mat.of_rows_list [ [ 1; 1 ] ] in
  Alcotest.(check bool) "coupled reachable in full space" true
    (solvable_in hc (v [ 3 ]) (Subspace.full 2));
  Alcotest.(check bool) "kernel direction cannot change the value" false
    (solvable_in hc (v [ 3 ]) (Subspace.of_basis ~dim:2 [ v [ 1; -1 ] ]))

let sub_gen =
  QCheck2.Gen.(
    let* n = int_range 0 3 in
    let* basis = list_size (return n) (Gen.vec_gen ~dim:3 ~lo:(-3) ~hi:3) in
    return (Subspace.of_basis ~dim:3 basis))

let prop_intersect_subset =
  QCheck2.Test.make ~name:"subspace: intersection contained in both" ~count:200
    QCheck2.Gen.(pair sub_gen sub_gen)
    (fun (a, b) ->
      let i = Subspace.intersect a b in
      Solve_reference.subset i a && Solve_reference.subset i b)

let prop_join_contains =
  QCheck2.Test.make ~name:"subspace: join contains both" ~count:200
    QCheck2.Gen.(pair sub_gen sub_gen)
    (fun (a, b) ->
      let j = Subspace.join a b in
      Solve_reference.subset a j && Solve_reference.subset b j)

let prop_dim_formula =
  QCheck2.Test.make ~name:"subspace: dim(a)+dim(b) = dim(a∩b)+dim(a+b)" ~count:200
    QCheck2.Gen.(pair sub_gen sub_gen)
    (fun (a, b) ->
      Subspace.dim a + Subspace.dim b
      = Subspace.dim (Subspace.intersect a b) + Subspace.dim (Subspace.join a b))

let prop_solution_in_sound =
  QCheck2.Test.make ~name:"subspace: solution_in witness is valid" ~count:200
    QCheck2.Gen.(
      triple
        (map (fun ls -> Mat.of_rows_list ls)
           (list_size (return 2) (list_size (return 3) (int_range (-3) 3))))
        (Gen.vec_gen ~dim:2 ~lo:(-4) ~hi:4)
        sub_gen)
    (fun (h, c, l) ->
      match solution_in h c l with
      | Some x -> Vec.equal (Mat.apply h x) c && Solve_reference.mem x l
      | None -> true)

(* The solve before [Subspace.prepare]: per call, the basis matrix [B],
   [H B] and a full rational elimination of [H B | c].  The prepared
   solve must agree with it bit for bit. *)
module Reference = struct
  let witness_rat h c l =
    let n = Subspace.ambient_dim l in
    if Mat.cols h <> n then invalid_arg "Reference.witness_rat: dimension";
    if Vec.is_zero c then Some (Array.make n Rat.zero)
    else if Subspace.is_trivial l then None
    else begin
      let b = Mat.of_cols (Subspace.basis l) n in
      match Solve_reference.mat_solve_rat (Mat.mul h b) c with
      | None -> None
      | Some y ->
          Some
            (Array.init n (fun i ->
                 let s = ref Rat.zero in
                 List.iteri
                   (fun j bj -> s := Rat.add !s (Rat.mul y.(j) (Rat.of_int (Vec.get bj i))))
                   (Subspace.basis l);
                 !s))
    end

  let solution_in h c l =
    match witness_rat h c l with
    | None -> None
    | Some x ->
        if Array.for_all Rat.is_integer x then
          Some (Vec.make (Array.map Rat.to_int_exn x))
        else None
end

(* Integer matrices with negative entries, some with a zeroed column or
   a dependent last row, in every shape up to 3 x 4. *)
let matrix_gen =
  QCheck2.Gen.(
    let* rows = int_range 1 3 in
    let* cols = int_range 1 4 in
    let* a = array_size (return rows) (array_size (return cols) (int_range (-3) 3)) in
    let* zero_col = option (int_range 0 (cols - 1)) in
    let* dependent = bool in
    let* k = int_range (-2) 2 in
    let a =
      Array.mapi
        (fun i r -> if dependent && rows >= 2 && i = rows - 1 then Array.map (( * ) k) a.(0) else r)
        a
    in
    return
      (Mat.of_rows (Array.map (Array.mapi (fun j x -> if Some j = zero_col then 0 else x)) a)))

(* Trivial, coordinate, full or a random span of ambient dimension n. *)
let subspace_gen n =
  QCheck2.Gen.(
    oneof
      [ return (Subspace.trivial n);
        return (Subspace.full n);
        map
          (fun ds -> Subspace.span_dims ~dim:n (List.filter (fun d -> List.mem d ds) (List.init n Fun.id)))
          (list_size (int_range 1 n) (int_range 0 (n - 1)));
        map (Subspace.of_basis ~dim:n) (list_size (int_range 1 n) (Gen.vec_gen ~dim:n ~lo:(-2) ~hi:2)) ])

(* Right-hand sides: random, zero, or H x for an integer x in l (so the
   solvable case is common). *)
let rhs_gen h l =
  QCheck2.Gen.(
    let m = Mat.rows h in
    oneof
      [ Gen.vec_gen ~dim:m ~lo:(-4) ~hi:4;
        return (Vec.zero m);
        map
          (fun coefs ->
            let x =
              List.fold_left2
                (fun acc a b -> Vec.add acc (Vec.scale a b))
                (Vec.zero (Mat.cols h)) coefs (Subspace.basis l)
            in
            Mat.apply h x)
          (list_size (return (Subspace.dim l)) (int_range (-2) 2)) ])

let solve_case_gen =
  QCheck2.Gen.(
    let* h = matrix_gen in
    let* l = subspace_gen (Mat.cols h) in
    let* cs = list_size (int_range 1 6) (rhs_gen h l) in
    return (h, l, cs))

let print_case (h, l, cs) =
  Printf.sprintf "H=%s L=%s c=[%s]" (Mat.to_string h)
    (Format.asprintf "%a" Subspace.pp l)
    (String.concat "; " (List.map Vec.to_string cs))

(* What a rational witness says of [c]: none, fractional, or integral. *)
let outcome_of_rat = function
  | None -> Subspace.No_solution
  | Some x when Array.for_all Rat.is_integer x ->
      Subspace.Integral (Vec.make (Array.map Rat.to_int_exn x))
  | Some _ -> Subspace.Fractional

let outcome_equal (a : Subspace.outcome) (b : Subspace.outcome) =
  match (a, b) with
  | Subspace.Integral x, Subspace.Integral y -> Vec.equal x y
  | Subspace.No_solution, Subspace.No_solution | Subspace.Fractional, Subspace.Fractional -> true
  | _ -> false

let prop_prepared_matches_reference =
  QCheck2.Test.make ~name:"subspace: prepared solve = full-RREF reference" ~count:500
    ~print:print_case solve_case_gen (fun (h, l, cs) ->
      let p = Subspace.prepare h l in
      List.for_all
        (fun c ->
          Option.equal Vec.equal (Subspace.solve p c) (Reference.solution_in h c l)
          && outcome_equal
               (Subspace.outcome p (Vec.to_array c))
               (outcome_of_rat (Reference.witness_rat h c l))
          && Option.equal Vec.equal (solution_in h c l) (Reference.solution_in h c l))
        cs)

let prop_prepared_rat_matches_mat =
  QCheck2.Test.make ~name:"subspace: full-space rational solve = Mat.solve_rat" ~count:500
    ~print:print_case
    QCheck2.Gen.(
      let* h = matrix_gen in
      let l = Subspace.full (Mat.cols h) in
      let* cs = list_size (int_range 1 6) (rhs_gen h l) in
      return (h, l, cs))
    (fun (h, l, cs) ->
      let p = Subspace.prepare h l in
      List.for_all
        (fun c ->
          outcome_equal (Subspace.outcome p (Vec.to_array c)) (outcome_of_rat (Solve_reference.mat_solve_rat h c)))
        cs)

let suite =
  [ Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "membership" `Quick test_membership;
    Alcotest.test_case "canonical equality" `Quick test_canonical_equality;
    Alcotest.test_case "intersect and join" `Quick test_intersect_join;
    Alcotest.test_case "solvable_in" `Quick test_solvable_in;
    Gen.to_alcotest prop_intersect_subset;
    Gen.to_alcotest prop_join_contains;
    Gen.to_alcotest prop_dim_formula;
    Gen.to_alcotest prop_solution_in_sound;
    Gen.to_alcotest prop_prepared_matches_reference;
    Gen.to_alcotest prop_prepared_rat_matches_mat ]

(* [span_dims] builds its basis directly from the sorted levels; it must
   be the canonical basis [of_basis] finds for the same unit vectors, in
   any order and with repeats. *)
let prop_span_dims_canonical =
  QCheck2.Test.make ~name:"subspace: span_dims == of_basis of its unit vectors"
    ~count:300
    ~print:(fun (dim, ds) ->
      Printf.sprintf "dim=%d levels=[%s]" dim (String.concat ";" (List.map string_of_int ds)))
    QCheck2.Gen.(
      let* dim = int_range 1 5 in
      let* ds = list_size (int_range 0 7) (int_range 0 (dim - 1)) in
      return (dim, ds))
    (fun (dim, ds) ->
      Subspace.equal (Subspace.span_dims ~dim ds)
        (Subspace.of_basis ~dim (List.map (Vec.unit dim) ds)))

let suite = suite @ [ Gen.to_alcotest prop_span_dims_canonical ]

(* --- the integer apply against the rational solve it replaced ---------- *)

(* Right-hand sides of every kind: zero, [H x] for an integral [x] in
   [L] (integral), a unit or doubled unit vector (often a fractional
   witness, or inconsistent) and random ones. *)
let any_rhs_gen h l =
  QCheck2.Gen.(
    let m = Mat.rows h in
    oneof
      [ rhs_gen h l;
        map2 (fun i k -> Vec.scale k (Vec.unit m i)) (int_range 0 (m - 1)) (int_range 1 2) ])

let integer_case_gen =
  QCheck2.Gen.(
    let* h = matrix_gen in
    let* l = subspace_gen (Mat.cols h) in
    let* cs =
      list_size (int_range 1 6)
        (pair (any_rhs_gen h l) (Gen.vec_gen ~dim:(Mat.rows h) ~lo:(-3) ~hi:3))
    in
    return (h, l, cs))

let kind = function Subspace.No_solution -> 0 | Subspace.Fractional -> 1 | Subspace.Integral _ -> 2

(* [c] read as [c1 - c2] for [c1 = c + c2]. *)
let prop_integer_solve_matches_rat =
  QCheck2.Test.make ~name:"subspace: integer solve and outcome = Rat reference" ~count:1000
    ~print:(fun (h, l, cs) -> print_case (h, l, List.map fst cs))
    integer_case_gen
    (fun (h, l, cs) ->
      let p = Subspace.prepare h l and r = Solve_reference.prepare h l in
      List.for_all
        (fun (c, c2) ->
          let c1 = Vec.to_array (Vec.add c c2) in
          let diff truncate = Subspace.solvable_diff p ~truncate c1 (Vec.to_array c2) in
          Option.equal Vec.equal (Subspace.solve p c) (Solve_reference.solve r c)
          && outcome_equal (Subspace.outcome p (Vec.to_array c)) (Solve_reference.outcome r c)
          && diff false = Option.is_some (Solve_reference.solve r c)
          && diff true = Option.is_some (Solve_reference.solve r (Vec.set c 0 0)))
        cs)

(* The generator reaches every outcome, so the property above compares
   all three. *)
let test_integer_cases_cover_outcomes () =
  let counts = Array.make 3 0 in
  List.iter
    (fun (h, l, cs) ->
      let r = Solve_reference.prepare h l in
      List.iter
        (fun (c, _) ->
          let k = kind (Solve_reference.outcome r c) in
          counts.(k) <- counts.(k) + 1)
        cs)
    (QCheck2.Gen.generate ~rand:(Random.State.make [| 29 |]) ~n:400 integer_case_gen);
  let total = Array.fold_left ( + ) 0 counts in
  Array.iteri
    (fun k n ->
      Alcotest.(check bool)
        (Printf.sprintf "outcome %d in at least 5%% of %d cases (%d)" k total n)
        true (20 * n >= total))
    counts

(* Row 0 of [H^-1] is [(1/a, -1/(ab))]: its scale is the product of two
   primes past [max_int], so the scaling raises instead of wrapping, at
   the first non-zero solve. *)
let test_scale_overflow_raises () =
  let a = 2147483647 and b = 4294967291 in
  let p = Subspace.prepare (Mat.of_rows_list [ [ a; 1 ]; [ 0; b ] ]) (Subspace.full 2) in
  Alcotest.(check bool) "zero solves without factoring" true
    (Subspace.solve p (v [ 0; 0 ]) <> None);
  Alcotest.check_raises "overflow" (Invalid_argument "Subspace.factor: integer overflow") (fun () ->
      ignore (Subspace.solve p (v [ a; b ])))

let suite =
  suite
  @ [ Gen.to_alcotest prop_integer_solve_matches_rat;
      Alcotest.test_case "integer cases cover every outcome" `Quick
        test_integer_cases_cover_outcomes;
      Alcotest.test_case "scale overflow raises" `Quick test_scale_overflow_raises ]

(* [of_basis] of vectors along coordinate axes (any non-zero multiple,
   repeats and zero vectors allowed) is the canonical row space the
   elimination finds. *)
let prop_axis_basis_is_row_space =
  QCheck2.Test.make ~name:"subspace: of_basis of axis vectors = Mat.row_space" ~count:300
    QCheck2.Gen.(
      let* dim = int_range 1 4 in
      let* axes = list_size (int_range 1 5) (pair (int_range 0 (dim - 1)) (int_range (-3) 3)) in
      return (dim, List.map (fun (i, k) -> Vec.scale k (Vec.unit dim i)) axes))
    (fun (dim, vs) ->
      let nonzero = List.filter (fun x -> not (Vec.is_zero x)) vs in
      let expected =
        if nonzero = [] then []
        else Mat.row_space (Mat.of_rows (Array.of_list (List.map Vec.to_array nonzero)))
      in
      List.equal Vec.equal (Subspace.basis (Subspace.of_basis ~dim vs)) expected)

let suite = suite @ [ Gen.to_alcotest prop_axis_basis_is_row_space ]

(* Each row keeps its own scale, and a right-hand side past the bound
   that keeps the dot products from wrapping is applied in checked
   arithmetic: the answer is the Rat reference's, or [Invalid_argument]
   where the difference itself passes [max_int]. *)
let test_large_rhs_exact_or_raises () =
  let a = 2147483647 and b = 2147483629 in
  let h = Mat.of_rows_list [ [ a; 0 ]; [ 0; b ] ] and full = Subspace.full 2 in
  let p = Subspace.prepare h full and r = Solve_reference.prepare h full in
  let c = v [ 2 * a; 0 ] in
  let witness = Alcotest.(option (testable Vec.pp Vec.equal)) in
  Alcotest.check witness "diag(a, b), c = (2a, 0)" (Solve_reference.solve r c) (Subspace.solve p c);
  Alcotest.check witness "integral (2, 0)" (Some (v [ 2; 0 ])) (Subspace.solve p c);
  let one = Subspace.prepare (Mat.of_rows_list [ [ 1 ] ]) (Subspace.full 1) in
  Alcotest.check witness "max_int solved in checked arithmetic" (Some (v [ max_int ]))
    (Subspace.solve one (v [ max_int ]));
  let two = Subspace.prepare (Mat.of_rows_list [ [ 2 ] ]) (Subspace.full 1) in
  Alcotest.check_raises "difference past max_int"
    (Invalid_argument "Subspace.factor: integer overflow") (fun () ->
      ignore (Subspace.solvable_diff two ~truncate:false [| max_int |] [| -1 |]))

let suite =
  suite
  @ [ Alcotest.test_case "large right-hand side exact or raises" `Quick
        test_large_rhs_exact_or_raises ]
