(* The class key that partitions copy points for the exact tables
   ([Solvers.reducer], through [Table_wrappers.temporal_point_class]/
   [spatial_point_class]), checked against the pairwise solve it
   replaces. *)

open Ujam_linalg

let v = Vec.of_list

(* Reference: the pairwise solve.  Copies at offsets [p] and [r] denote
   one group when some [x] in the localized space satisfies
   [A x = A (p - r)]; the answer is the witness's innermost component
   (the time shift between the copies), memoised on [p - r]. *)
let point_equiv ~a ~localized =
  let memo : (Vec.t, int option) Hashtbl.t = Hashtbl.create 64 in
  let innermost = Mat.cols a - 1 in
  fun p r ->
    let diff = Vec.sub p r in
    match Hashtbl.find_opt memo diff with
    | Some res -> res
    | None ->
        let res =
          Option.map
            (fun x -> Vec.get x innermost)
            (Subspace.solve (Subspace.prepare a localized) (Mat.apply a diff))
        in
        Hashtbl.add memo diff res;
        res

(* [true] when the class keys induce the pairwise partition and every
   equivalent pair's witness shift is the difference of their shifts. *)
let agrees ~point_class ~equiv points =
  let classes = List.map (fun p -> (p, point_class p)) points in
  List.for_all
    (fun (p, (kp, sp)) ->
      List.for_all
        (fun (r, (kr, sr)) ->
          equiv p r = if Vec.equal kp kr then Some (sp - sr) else None)
        classes)
    classes

(* Integer access matrices over 2..4 loops with negative entries, a
   zero last column about a third of the time ([A b = 0] for the
   innermost localized space), a localized space that is trivial, the
   innermost loop or a random line, and points with negative
   coordinates. *)
let case_gen =
  let open QCheck2.Gen in
  let* depth = int_range 2 4 in
  let* rows = int_range 1 3 in
  let* zero_last = map (fun k -> k = 0) (int_range 0 2) in
  let* entries =
    list_size (return rows) (list_size (return depth) (int_range (-3) 3))
  in
  let h =
    Mat.of_rows_list
      (List.map
         (List.mapi (fun k x -> if zero_last && k = depth - 1 then 0 else x))
         entries)
  in
  let* localized =
    oneof
      [ return (Subspace.trivial depth);
        return (Subspace.span_dims ~dim:depth [ depth - 1 ]);
        map
          (fun b -> Subspace.of_basis ~dim:depth [ b ])
          (Gen.vec_gen ~dim:depth ~lo:(-2) ~hi:2) ]
  in
  let* points = list_size (int_range 1 14) (Gen.vec_gen ~dim:depth ~lo:(-4) ~hi:4) in
  return (h, localized, points)

let print_case (h, localized, points) =
  Format.asprintf "H =@.%a@.localized = %a@.points = %s" Mat.pp h Subspace.pp
    localized
    (String.concat " " (List.map Vec.to_string points))

let prop_temporal_matches_pairwise =
  QCheck2.Test.make ~name:"solvers: temporal class keys == pairwise solve"
    ~count:300 ~print:print_case case_gen (fun (h, localized, points) ->
      agrees
        ~point_class:(Table_wrappers.temporal_point_class ~h ~localized)
        ~equiv:(point_equiv ~a:h ~localized)
        points)

let prop_spatial_matches_pairwise =
  QCheck2.Test.make ~name:"solvers: spatial class keys == pairwise solve"
    ~count:300 ~print:print_case case_gen (fun (h, localized, points) ->
      agrees
        ~point_class:(Table_wrappers.spatial_point_class ~h ~localized)
        ~equiv:
          (point_equiv ~a:(Ujam_reuse.Selfreuse.spatial_matrix h) ~localized)
        points)

let key_and_shift = Alcotest.(pair (testable Vec.pp Vec.equal) int)

let test_floor_negative () =
  (* H b = (-2, 1) for b = e_1: the first non-zero coordinate is
     negative, and (H p)_0 = -3 is negative and odd, so truncating
     division would round the wrong way. *)
  let h = Mat.of_rows_list [ [ 1; -2 ]; [ 2; 1 ] ] in
  let localized = Subspace.span_dims ~dim:2 [ 1 ] in
  let point_class = Table_wrappers.temporal_point_class ~h ~localized in
  let p = v [ -3; 0 ] in
  (* t = floor (-3 / -2) = 1, key = (-3, -6) - 1 * (-2, 1) *)
  Alcotest.check key_and_shift "canonical key" (v [ -1; -7 ], 1) (point_class p);
  let key, shift = point_class p in
  for k = -3 to 3 do
    Alcotest.check key_and_shift
      (Printf.sprintf "p + %d b" k)
      (key, shift + k)
      (point_class (Vec.add p (v [ 0; k ])))
  done;
  (* a positive pivot with a negative numerator rounds down too *)
  let point_class =
    Table_wrappers.temporal_point_class ~h:(Mat.of_rows_list [ [ 1; 3 ] ]) ~localized
  in
  Alcotest.check key_and_shift "floor (-4 / 3) = -2" (v [ 2 ], -2)
    (point_class (v [ -4; 0 ]))

let test_zero_image () =
  (* the innermost loop does not appear in H: H b = 0, so the key is
     H p itself and no point moves in time *)
  let h = Mat.of_rows_list [ [ 1; -1; 0 ]; [ 0; 2; 0 ] ] in
  let localized = Subspace.span_dims ~dim:3 [ 2 ] in
  let point_class = Table_wrappers.temporal_point_class ~h ~localized in
  let p = v [ -2; 3; -1 ] in
  Alcotest.check key_and_shift "key = H p" (v [ -5; 6 ], 0) (point_class p);
  Alcotest.check key_and_shift "innermost moves stay in class" (v [ -5; 6 ], 0)
    (point_class (v [ -2; 3; 5 ]))

let test_trivial_localized () =
  let h = Mat.of_rows_list [ [ 1; 0 ]; [ 0; 1 ] ] in
  let point_class =
    Table_wrappers.temporal_point_class ~h ~localized:(Subspace.trivial 2)
  in
  Alcotest.check key_and_shift "key = H p" (v [ -1; 4 ], 0)
    (point_class (v [ -1; 4 ]))

let test_plane_rejected () =
  let h = Mat.identity 3 in
  let localized = Subspace.span_dims ~dim:3 [ 1; 2 ] in
  Alcotest.check_raises "2-dimensional localized space"
    (Invalid_argument "Solvers.point_class: localized space of dimension > 1")
    (fun () -> ignore (Table_wrappers.temporal_point_class ~h ~localized (v [ 0; 0; 0 ])));
  Alcotest.check_raises "spatial too"
    (Invalid_argument "Solvers.point_class: localized space of dimension > 1")
    (fun () -> ignore (Table_wrappers.spatial_point_class ~h ~localized (v [ 0; 0; 0 ])))

let suite =
  [ Alcotest.test_case "floor with negative pivot" `Quick test_floor_negative;
    Alcotest.test_case "H b = 0" `Quick test_zero_image;
    Alcotest.test_case "trivial localized space" `Quick test_trivial_localized;
    Alcotest.test_case "plane localized space" `Quick test_plane_rejected;
    Gen.to_alcotest prop_temporal_matches_pairwise;
    Gen.to_alcotest prop_spatial_matches_pairwise ]
