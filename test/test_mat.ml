open Ujam_linalg

let mat = Alcotest.testable Mat.pp Mat.equal
let vec = Alcotest.testable Vec.pp Vec.equal

let m rows = Mat.of_rows_list rows

(* An integer solution of [m x = c] with free variables zero, if the
   particular rational solution is integral; complete for separable SIV
   access matrices. *)
let solve_int t c =
  match Solve_reference.mat_solve_rat t c with
  | Some x when Array.for_all Rat.is_integer x -> Some (Vec.make (Array.map Rat.to_int_exn x))
  | Some _ | None -> None

let test_construction () =
  Alcotest.check mat "identity" (m [ [ 1; 0 ]; [ 0; 1 ] ]) (Mat.identity 2);
  Alcotest.check mat "zero" (m [ [ 0; 0; 0 ]; [ 0; 0; 0 ] ]) (Mat.zero ~rows:2 ~cols:3);
  Alcotest.(check int) "rows" 2 (Mat.rows (m [ [ 1 ]; [ 2 ] ]));
  Alcotest.(check int) "cols" 1 (Mat.cols (m [ [ 1 ]; [ 2 ] ]));
  Alcotest.check vec "row" (Vec.of_list [ 3; 4 ]) (Mat.row (m [ [ 1; 2 ]; [ 3; 4 ] ]) 1);
  Alcotest.check vec "col" (Vec.of_list [ 2; 4 ]) (Mat.col (m [ [ 1; 2 ]; [ 3; 4 ] ]) 1);
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (m [ [ 1; 2 ]; [ 3 ] ]))

let test_ops () =
  let a = m [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.check mat "transpose" (m [ [ 1; 3 ]; [ 2; 4 ] ]) (Mat.transpose a);
  Alcotest.check mat "mul" (m [ [ 7; 10 ]; [ 15; 22 ] ]) (Mat.mul a a);
  Alcotest.check vec "apply" (Vec.of_list [ 5; 11 ]) (Mat.apply a (Vec.of_list [ 1; 2 ]));
  Alcotest.check mat "zero_row" (m [ [ 0; 0 ]; [ 3; 4 ] ]) (Mat.zero_row a 0);
  Alcotest.check mat "zero_col" (m [ [ 1; 0 ]; [ 3; 0 ] ]) (Mat.zero_col a 1);
  Alcotest.check mat "hstack"
    (m [ [ 1; 2; 1; 0 ]; [ 3; 4; 0; 1 ] ])
    (Mat.hstack a (Mat.identity 2));
  Alcotest.check mat "of_cols"
    (m [ [ 1; 0 ]; [ 0; 2 ] ])
    (Mat.of_cols [ Vec.of_list [ 1; 0 ]; Vec.of_list [ 0; 2 ] ] 2)

let test_rank () =
  Alcotest.(check int) "identity rank" 3 (Mat.rank (Mat.identity 3));
  Alcotest.(check int) "zero rank" 0 (Mat.rank (Mat.zero ~rows:2 ~cols:2));
  Alcotest.(check int) "dependent rows" 1 (Mat.rank (m [ [ 1; 2 ]; [ 2; 4 ] ]));
  Alcotest.(check int) "wide full rank" 2 (Mat.rank (m [ [ 1; 0; 1 ]; [ 0; 1; 1 ] ]))

let test_kernel () =
  Alcotest.(check int) "identity kernel trivial" 0
    (List.length (Mat.kernel (Mat.identity 3)));
  (match Mat.kernel (m [ [ 1; 1 ] ]) with
  | [ k ] ->
      Alcotest.check vec "kernel of [1 1] is (1,-1) direction"
        (Vec.of_list [ 1; -1 ])
        (if Vec.get k 0 >= 0 then k else Vec.neg k)
  | ks -> Alcotest.failf "expected 1 kernel vector, got %d" (List.length ks));
  (* kernel vectors really are in the kernel, and primitive *)
  let h = m [ [ 2; 4; 0 ]; [ 0; 0; 3 ] ] in
  List.iter
    (fun k ->
      Alcotest.check vec "H k = 0" (Vec.zero 2) (Mat.apply h k);
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      Alcotest.(check int) "primitive" 1
        (Vec.fold (fun g x -> gcd g (abs x)) 0 k))
    (Mat.kernel h);
  Alcotest.(check int) "kernel dim" 1 (List.length (Mat.kernel h))

let test_solve () =
  (* unique solution *)
  (match solve_int (m [ [ 2; 0 ]; [ 0; 3 ] ]) (Vec.of_list [ 4; 9 ]) with
  | Some x -> Alcotest.check vec "diag solve" (Vec.of_list [ 2; 3 ]) x
  | None -> Alcotest.fail "expected solution");
  (* inconsistent *)
  Alcotest.(check bool) "inconsistent" true
    (Option.is_none (Solve_reference.mat_solve_rat (m [ [ 1; 0 ]; [ 1; 0 ] ]) (Vec.of_list [ 1; 2 ])));
  (* non-integral *)
  Alcotest.(check bool) "2x = 3 has no integer solution" true
    (Option.is_none (solve_int (m [ [ 2 ] ]) (Vec.of_list [ 3 ])));
  (match Solve_reference.mat_solve_rat (m [ [ 2 ] ]) (Vec.of_list [ 3 ]) with
  | Some [| x |] -> Alcotest.(check bool) "rational solution 3/2" true (Rat.equal x (Rat.make 3 2))
  | Some _ | None -> Alcotest.fail "expected rational solution");
  (* underdetermined: free variables set to zero *)
  (match solve_int (m [ [ 1; 1 ] ]) (Vec.of_list [ 5 ]) with
  | Some x ->
      Alcotest.check vec "particular solution" (Vec.of_list [ 5; 0 ]) x
  | None -> Alcotest.fail "expected solution")

let test_row_space () =
  let canon rows = Mat.row_space (m rows) in
  Alcotest.(check bool) "same row space" true
    (List.equal Vec.equal (canon [ [ 1; 2 ]; [ 0; 1 ] ]) (canon [ [ 1; 0 ]; [ 1; 1 ] ]));
  Alcotest.(check int) "rank via row space" 1
    (List.length (canon [ [ 2; 4 ]; [ 1; 2 ] ]))

let test_separable () =
  Alcotest.(check bool) "identity separable" true (Mat.is_separable_siv (Mat.identity 3));
  Alcotest.(check bool) "coupled row not separable" false
    (Mat.is_separable_siv (m [ [ 1; 1 ] ]));
  Alcotest.(check bool) "shared column not separable" false
    (Mat.is_separable_siv (m [ [ 1; 0 ]; [ 1; 0 ] ]));
  Alcotest.(check bool) "permutation separable" true
    (Mat.is_separable_siv (m [ [ 0; 1 ]; [ 1; 0 ] ]));
  Alcotest.(check bool) "zero rows separable" true
    (Mat.is_separable_siv (m [ [ 0; 0 ]; [ 0; 2 ] ]))

let mat_gen ~rows ~cols =
  QCheck2.Gen.(
    map
      (fun ls -> Mat.of_rows_list ls)
      (list_size (return rows) (list_size (return cols) (int_range (-4) 4))))

let prop_kernel_in_kernel =
  QCheck2.Test.make ~name:"mat: kernel basis vectors satisfy Hk=0" ~count:300
    (mat_gen ~rows:2 ~cols:3) (fun h ->
      List.for_all (fun k -> Vec.is_zero (Mat.apply h k)) (Mat.kernel h))

let prop_kernel_dim =
  QCheck2.Test.make ~name:"mat: rank + kernel dim = cols" ~count:300
    (mat_gen ~rows:3 ~cols:3) (fun h ->
      Mat.rank h + List.length (Mat.kernel h) = Mat.cols h)

let prop_solve_sound =
  QCheck2.Test.make ~name:"mat: solve_int solutions satisfy Hx=c" ~count:300
    QCheck2.Gen.(pair (mat_gen ~rows:2 ~cols:3) (Gen.vec_gen ~dim:2 ~lo:(-6) ~hi:6))
    (fun (h, c) ->
      match solve_int h c with
      | Some x -> Vec.equal (Mat.apply h x) c
      | None -> true)

let prop_solve_complete_separable =
  (* For separable SIV matrices, solve_int finds a solution whenever one
     exists: build c from a known integer x. *)
  QCheck2.Test.make ~name:"mat: solve_int complete on separable SIV" ~count:300
    QCheck2.Gen.(
      pair
        (map
           (fun (a, b) -> Mat.of_rows_list [ [ a; 0; 0 ]; [ 0; 0; b ] ])
           (pair (int_range (-3) 3) (int_range (-3) 3)))
        (Gen.vec_gen ~dim:3 ~lo:(-4) ~hi:4))
    (fun (h, x) ->
      let c = Mat.apply h x in
      Option.is_some (solve_int h c))

let suite =
  [ Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "ops" `Quick test_ops;
    Alcotest.test_case "rank" `Quick test_rank;
    Alcotest.test_case "kernel" `Quick test_kernel;
    Alcotest.test_case "solve" `Quick test_solve;
    Alcotest.test_case "row space" `Quick test_row_space;
    Alcotest.test_case "separable siv" `Quick test_separable;
    Gen.to_alcotest prop_kernel_in_kernel;
    Gen.to_alcotest prop_kernel_dim;
    Gen.to_alcotest prop_solve_sound;
    Gen.to_alcotest prop_solve_complete_separable ]
