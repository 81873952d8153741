(* The Wolf-Lam reuse model: UGS partitioning, self-reuse spaces,
   group-temporal/spatial partitions, Equation 1 and loop ranking. *)

open Ujam_linalg
open Ujam_ir
open Ujam_ir.Build
open Ujam_reuse

let space = Alcotest.testable Subspace.pp Subspace.equal

let innermost d = Subspace.span_dims ~dim:d [ d - 1 ]

let test_ugs_partition () =
  (* A(I,J), A(I,J+1) share H; A(J,I) is transposed; B(I,J) is another
     array. *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let nest =
    nest "mix"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "B" [ i; j ]
        <<- rd "A" [ i; j ] +: rd "A" [ i; j +$ 1 ] +: rd "A" [ j; i ] ]
  in
  let groups = Ugs.of_nest nest in
  Alcotest.(check int) "three UGSs" 3 (List.length groups);
  let a_same =
    List.find
      (fun (g : Ugs.t) ->
        String.equal g.Ugs.base "A" && List.length g.Ugs.members = 2)
      groups
  in
  Alcotest.(check int) "leaders" 2 (List.length (Ugs.leaders a_same));
  Alcotest.(check bool) "leaders lex sorted" true
    (match Ugs.constant_vectors a_same with
    | [ c1; c2 ] -> Vec.compare c1 c2 < 0
    | _ -> false);
  Alcotest.(check bool) "separable" true (Ugs.is_separable_siv a_same)

let test_ugs_duplicate_constants () =
  (* the same reference twice: one leader *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let nest =
    nest "dup"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "B" [ i; j ] <<- rd "A" [ i; j ] *: rd "A" [ i; j ] ]
  in
  let a = List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "A") (Ugs.of_nest nest) in
  Alcotest.(check int) "two members" 2 (List.length a.Ugs.members);
  Alcotest.(check int) "one leader" 1 (List.length (Ugs.leaders a))

let test_self_reuse_spaces () =
  let d = 3 in
  (* A(I,J) in a (J,K,I) nest: ker H = span(e_K) *)
  let h = Mat.of_rows_list [ [ 0; 0; 1 ]; [ 1; 0; 0 ] ] in
  Alcotest.check space "self-temporal = e_K"
    (Subspace.span_dims ~dim:d [ 1 ])
    (Selfreuse.self_temporal h);
  Alcotest.check space "self-spatial adds the contiguous walker"
    (Subspace.span_dims ~dim:d [ 1; 2 ])
    (Selfreuse.self_spatial h);
  Alcotest.(check bool) "temporal in K-localized" true
    (Selfreuse.has_self_temporal ~localized:(Subspace.span_dims ~dim:d [ 1 ]) h);
  Alcotest.(check bool) "no temporal innermost" false
    (Selfreuse.has_self_temporal ~localized:(innermost d) h);
  Alcotest.(check bool) "spatial innermost" true
    (Selfreuse.has_self_spatial ~localized:(innermost d) h);
  (* row access B(K,J): innermost I not used at all -> temporal, and
     spatial adds nothing beyond temporal *)
  let hb = Mat.of_rows_list [ [ 0; 1; 0 ]; [ 1; 0; 0 ] ] in
  Alcotest.(check bool) "invariant temporal" true
    (Selfreuse.has_self_temporal ~localized:(innermost d) hb);
  Alcotest.(check bool) "invariant not spatial-beyond-temporal" false
    (Selfreuse.has_self_spatial ~localized:(innermost d) hb)

let test_group_temporal () =
  let nest = Ujam_kernels.Kernels.jacobi ~n:16 () in
  let d = Nest.depth nest in
  let b = List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "B") (Ugs.of_nest nest) in
  (* innermost I: B(I-1,J), B(I,J±0...) merge along I; B(I,J-1), B(I,J+1)
     stay separate *)
  let gts = Groups.group_temporal ~localized:(innermost d) b in
  Alcotest.(check int) "jacobi B: 3 GTSs innermost" 3 (Groups.count gts);
  (* with both loops localized everything merges *)
  let gts_full = Groups.group_temporal ~localized:(Subspace.full d) b in
  Alcotest.(check int) "full space: single GTS" 1 (Groups.count gts_full);
  (* classes are sorted and partition the members *)
  Alcotest.(check int) "partition covers members" 4
    (List.fold_left (fun acc c -> acc + List.length c) 0 gts.Groups.classes)

let test_group_spatial () =
  let jac = Ujam_kernels.Kernels.jacobi ~n:16 () in
  let d = Nest.depth jac in
  let b = List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "B") (Ugs.of_nest jac) in
  (* spatially, B(I±1,J) and B(I,J) share cache lines; B(I,J±1) still
     differ in the J (column) dimension *)
  let gss = Groups.group_spatial ~localized:(innermost d) b in
  Alcotest.(check int) "jacobi B: 3 GSSs innermost" 3 (Groups.count gss);
  (* A(1,I) vs A(2,I): different rows of one column -> same line walk *)
  let d2 = 2 in
  let i = var d2 1 in
  let nest2 =
    nest "rows"
      [ loop d2 "J" ~level:0 ~lo:1 ~hi:8 (); loop d2 "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "B" [ i ] <<- rd "A" [ cst d2 1; i ] +: rd "A" [ cst d2 2; i ] ]
  in
  let a = List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "A") (Ugs.of_nest nest2) in
  Alcotest.(check int) "temporally distinct" 2
    (Groups.count (Groups.group_temporal ~localized:(innermost d2) a));
  Alcotest.(check int) "spatially one group" 1
    (Groups.count (Groups.group_spatial ~localized:(innermost d2) a))

let test_eq1_costs () =
  let line = 4 in
  let check_nest name expected nest =
    let d = Nest.depth nest in
    Alcotest.(check (float 0.0001)) name expected
      (Locality.nest_accesses ~line ~localized:(innermost d) nest)
  in
  (* mmjki: C unit-stride 1/4, A unit-stride 1/4, B invariant 0 *)
  check_nest "mmjki" 0.5 (Ujam_kernels.Kernels.mmjki ~n:8 ());
  (* dmxpy0 (inner I): Y unit-stride (r+w merge) 1/4, X invariant, column
     M(I,J) unit-stride 1/4 *)
  check_nest "dmxpy0" 0.5 (Ujam_kernels.Kernels.dmxpy0 ~n:8 ());
  (* dmxpy1 (inner J): Y invariant 0, X unit-stride 1/4, M row walk
     no-reuse 1 *)
  check_nest "dmxpy1" 1.25 (Ujam_kernels.Kernels.dmxpy1 ~n:8 ());
  (* jacobi: A 1/4; B: 3 GTS, 3 GSS, unit-stride: (3 + 0/4) * 1/4 *)
  check_nest "jacobi" 1.0 (Ujam_kernels.Kernels.jacobi ~n:8 ())

let test_eq1_group_sharing () =
  (* A(1,I), A(2,I): adjacent rows of the walked column share lines
     (g_T=2, g_S=1) but the walk itself is strided (no self-spatial
     reuse): (1 + 1/4) * 1 *)
  let d = 2 in
  let i = var d 1 in
  let nest =
    nest "shared"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "B" [ i ] <<- rd "A" [ cst d 1; i ] +: rd "A" [ cst d 2; i ] ]
  in
  let a = List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "A") (Ugs.of_nest nest) in
  let c = Locality.ugs_cost ~line:4 ~localized:(innermost d) a in
  Alcotest.(check (float 0.0001)) "Eq.1 with line sharing" 1.25 c.Locality.accesses;
  Alcotest.(check int) "g_T" 2 c.Locality.g_t;
  Alcotest.(check int) "g_S" 1 c.Locality.g_s

let test_rank_loops () =
  (* mmjik (J,I,K): localizing I exposes B(K,J)'s spatial reuse...
     compare the two outer candidates on mmjki (J,K,I): K carries A
     reuse, J carries B/C reuse. *)
  let nest = Ujam_kernels.Kernels.mmjki ~n:8 () in
  let ranking = Locality.rank_outer_loops ~line:4 nest in
  Alcotest.(check int) "two candidates" 2 (List.length ranking);
  List.iter
    (fun (level, cost) ->
      Alcotest.(check bool) "outer levels only" true (level < 2);
      Alcotest.(check bool) "cost positive" true (cost >= 0.0))
    ranking;
  Alcotest.(check bool) "sorted ascending" true
    (match ranking with [ (_, a); (_, b) ] -> a <= b | _ -> false)

let prop_group_counts_consistent =
  QCheck2.Test.make ~name:"reuse: g_S <= g_T <= members" ~count:150
    (Gen.nest_gen ()) (fun nest ->
      let d = Nest.depth nest in
      let localized = innermost d in
      List.for_all
        (fun (g : Ugs.t) ->
          let gt = Groups.count (Groups.group_temporal ~localized g) in
          let gs = Groups.count (Groups.group_spatial ~localized g) in
          gs <= gt && gt <= List.length g.Ugs.members && gs >= 1)
        (Ugs.of_nest nest))

let prop_partition_is_partition =
  QCheck2.Test.make ~name:"reuse: GTS classes partition the UGS" ~count:150
    (Gen.nest_gen ()) (fun nest ->
      let d = Nest.depth nest in
      List.for_all
        (fun (g : Ugs.t) ->
          let part = Groups.group_temporal ~localized:(innermost d) g in
          let total = List.fold_left (fun a c -> a + List.length c) 0 part.Groups.classes in
          total = List.length g.Ugs.members
          && List.for_all (fun c -> c <> []) part.Groups.classes)
        (Ugs.of_nest nest))

let prop_spatial_coarsens_temporal =
  QCheck2.Test.make ~name:"reuse: every GTS lies inside one GSS" ~count:150
    (Gen.nest_gen ()) (fun nest ->
      let d = Nest.depth nest in
      let localized = innermost d in
      List.for_all
        (fun (g : Ugs.t) ->
          let gts = Groups.group_temporal ~localized g in
          List.for_all
            (fun cls ->
              match cls with
              | [] -> true
              | leader :: rest ->
                  let c1 = Aref.c_vector leader.Site.ref_ in
                  List.for_all
                    (fun (s : Site.t) ->
                      Groups.merges_spatial ~localized g ~c1
                        ~c2:(Aref.c_vector s.Site.ref_))
                    rest)
            gts.Groups.classes)
        (Ugs.of_nest nest))

(* The partition as it was built before the prepared solve: a scan
   against class leaders with appends, under the full-RREF reference
   predicate.  Class order and member order must survive. *)
let reference_partition ~merges (u : Ugs.t) =
  let sorted =
    List.stable_sort
      (fun (a : Site.t) (b : Site.t) ->
        Vec.compare (Aref.c_vector a.Site.ref_) (Aref.c_vector b.Site.ref_))
      u.Ugs.members
  in
  let classes : Site.t list ref list ref = ref [] in
  List.iter
    (fun (s : Site.t) ->
      let c = Aref.c_vector s.Site.ref_ in
      let rec place = function
        | [] -> classes := !classes @ [ ref [ s ] ]
        | cell :: rest ->
            let leader = List.hd !cell in
            if merges ~c1:c ~c2:(Aref.c_vector leader.Site.ref_) then cell := !cell @ [ s ]
            else place rest
      in
      place !classes)
    sorted;
  List.map (fun cell -> !cell) !classes

(* One UGS over an arbitrary integer H (coupled, zero columns,
   rank-deficient), with repeated constants and mixed reads/writes. *)
let ugs_gen =
  QCheck2.Gen.(
    let* h = Test_subspace.matrix_gen in
    let rank = Mat.rows h and depth = Mat.cols h in
    let* consts =
      list_size (int_range 1 10) (array_size (return rank) (int_range (-3) 3))
    in
    let* writes = list_size (return (List.length consts)) bool in
    let members =
      List.mapi
        (fun id (cs, w) ->
          { Site.id;
            stmt = id / 3;
            kind = (if w then Site.Write else Site.Read);
            ref_ =
              Aref.make "A"
                (List.init rank (fun r ->
                     Affine.make ~coefs:(Array.init depth (fun k -> Mat.get h r k)) ~const:cs.(r)))
          })
        (List.combine consts writes)
    in
    let* localized = Test_subspace.subspace_gen depth in
    return ({ Ugs.base = "A"; h; members }, localized))

let prop_groups_match_reference =
  QCheck2.Test.make ~name:"reuse: GTS/GSS partitions = pairwise reference partition" ~count:300
    ~print:(fun ((u : Ugs.t), l) ->
      Printf.sprintf "H=%s L=%s c=[%s]" (Mat.to_string u.Ugs.h)
        (Format.asprintf "%a" Subspace.pp l)
        (String.concat "; "
           (List.map (fun (s : Site.t) -> Vec.to_string (Aref.c_vector s.Site.ref_)) u.Ugs.members)))
    ugs_gen
    (fun ((u : Ugs.t), localized) ->
      let ids = List.map (List.map (fun (s : Site.t) -> s.Site.id)) in
      let solvable h d = Option.is_some (Test_subspace.Reference.solution_in h d localized) in
      let temporal ~c1 ~c2 = solvable u.Ugs.h (Vec.sub c1 c2) in
      let spatial ~c1 ~c2 =
        solvable (Selfreuse.spatial_matrix u.Ugs.h) (Vec.set (Vec.sub c1 c2) 0 0)
      in
      (* every pair shares a class exactly when the reference predicate
         holds *)
      let pairwise merges classes =
        List.for_all
          (fun (a : Site.t) ->
            List.for_all
              (fun (b : Site.t) ->
                let same =
                  List.exists (fun cls -> List.memq a cls && List.memq b cls) classes
                in
                same = merges ~c1:(Aref.c_vector a.Site.ref_) ~c2:(Aref.c_vector b.Site.ref_))
              u.Ugs.members)
          u.Ugs.members
      in
      let gts = (Groups.group_temporal ~localized u).Groups.classes in
      let gss = (Groups.group_spatial ~localized u).Groups.classes in
      ids gts = ids (reference_partition ~merges:temporal u)
      && ids gss = ids (reference_partition ~merges:spatial u)
      && pairwise temporal gts && pairwise spatial gss)

(* --- static per-level miss-ratio prediction vs. the hierarchy simulator --- *)

let mismatch_strings (out : Ujam_oracle.Cachepred.outcome) =
  List.map
    (Format.asprintf "%a" Ujam_oracle.Mismatch.pp)
    out.Ujam_oracle.Cachepred.mismatches

(* every shipped kernel, on every preset (flat and hierarchical), must
   predict within the shipped tolerance at every warm level *)
let test_predictor_kernels () =
  let levels = ref 0 in
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build () in
      List.iter
        (fun (machine : Ujam_machine.Machine.t) ->
          let out = Ujam_oracle.Cachepred.check ~machine nest in
          levels := !levels + out.Ujam_oracle.Cachepred.levels_checked;
          Alcotest.(check (list string))
            (Printf.sprintf "%s on %s" e.Ujam_kernels.Catalogue.name
               machine.Ujam_machine.Machine.name)
            [] (mismatch_strings out))
        Ujam_machine.Presets.[ alpha; hppa; alpha_mem; hppa_mem ])
    Ujam_kernels.Catalogue.all;
  Alcotest.(check bool) "kernel levels actually compared" true (!levels >= 40)

(* a pinned seeded slice of the random-nest corpus: the calibration the
   fuzz layer's defaults were tuned against must not regress *)
let test_predictor_corpus () =
  let rs = Random.State.make [| 42 |] in
  let levels = ref 0 in
  for i = 1 to 60 do
    let routine = Ujam_workload.Generator.routine rs i in
    List.iter
      (fun nest ->
        List.iter
          (fun (machine : Ujam_machine.Machine.t) ->
            let out = Ujam_oracle.Cachepred.check ~machine nest in
            levels := !levels + out.Ujam_oracle.Cachepred.levels_checked;
            Alcotest.(check (list string))
              (Printf.sprintf "corpus %d (%s) on %s" i (Nest.name nest)
                 machine.Ujam_machine.Machine.name)
              [] (mismatch_strings out))
          Ujam_machine.Presets.[ alpha_mem; hppa_mem ])
      routine.Ujam_workload.Generator.nests
  done;
  Alcotest.(check bool) "corpus levels actually compared" true (!levels >= 100)

(* the oracle self-test: a fully associative level whose capacity the
   sweep fills exactly.  With correct geometry the sweep just fits
   (steady state is cold misses only) and the strict check is clean;
   stealing a single line tips every first-touch into an LRU capacity
   miss, which the underprediction direction must flag — and the
   reproducer must survive shrinking. *)
let test_predictor_catches_stolen_line () =
  let machine =
    Ujam_machine.Machine.make ~name:"fa-test"
      ~levels:
        [ Ujam_machine.Machine.Level.make ~name:"FA" ~size:4096 ~line:4
            ~assoc:1024 () ]
      ()
  in
  let d = 2 in
  let jv = var d 1 in
  let sweep =
    nest "sweep"
      [ loop d "R" ~level:0 ~lo:1 ~hi:16 ();
        loop d "J" ~level:1 ~lo:0 ~hi:4095 () ]
      [ "t" <<~ rd "A" [ jv ] ]
  in
  let ok = Ujam_oracle.Cachepred.check ~strict:true ~machine sweep in
  Alcotest.(check (list string)) "correct geometry: clean" []
    (mismatch_strings ok);
  Alcotest.(check bool) "level compared" true
    (ok.Ujam_oracle.Cachepred.levels_checked > 0);
  let still_fails n =
    (Ujam_oracle.Cachepred.check ~strict:true ~steal_lines:1 ~machine n)
      .Ujam_oracle.Cachepred.mismatches
    <> []
  in
  Alcotest.(check bool) "one stolen line flagged" true (still_fails sweep);
  let shrunk = Ujam_oracle.Shrink.run ~still_fails sweep in
  Alcotest.(check bool) "shrunk reproducer still fails" true
    (still_fails shrunk);
  Alcotest.(check bool) "shrunk no deeper" true
    (Nest.depth shrunk <= Nest.depth sweep)

let test_machine_geometry_validation () =
  let module M = Ujam_machine.Machine in
  (match
     M.make_checked ~name:"bad" ~cache_size:1000 ~cache_line:16
       ~associativity:1 ()
   with
  | Error e -> Alcotest.(check string) "flat fields named" "cache" e.M.level
  | Ok _ -> Alcotest.fail "non-multiple flat geometry accepted");
  let l ~name ~size = M.Level.make ~name ~size ~line:4 ~assoc:1 () in
  (match
     M.validate_levels [ l ~name:"L1" ~size:1024; l ~name:"L2" ~size:512 ]
   with
  | Error e -> Alcotest.(check string) "shrinking hierarchy named" "L2" e.M.level
  | Ok () -> Alcotest.fail "shrinking hierarchy accepted");
  match
    M.make_checked ~name:"ok"
      ~levels:[ l ~name:"L1" ~size:512; l ~name:"L2" ~size:1024 ]
      ()
  with
  | Ok m ->
      Alcotest.(check int) "two levels kept" 2
        (List.length (M.effective_levels m))
  | Error e -> Alcotest.fail (M.geometry_message e)

let suite =
  [ Alcotest.test_case "ugs partition" `Quick test_ugs_partition;
    Alcotest.test_case "duplicate constants" `Quick test_ugs_duplicate_constants;
    Alcotest.test_case "self reuse spaces" `Quick test_self_reuse_spaces;
    Alcotest.test_case "group temporal" `Quick test_group_temporal;
    Alcotest.test_case "group spatial" `Quick test_group_spatial;
    Alcotest.test_case "equation 1 costs" `Quick test_eq1_costs;
    Alcotest.test_case "equation 1 line sharing" `Quick test_eq1_group_sharing;
    Alcotest.test_case "loop ranking" `Quick test_rank_loops;
    Alcotest.test_case "predictor: kernels within tolerance" `Quick
      test_predictor_kernels;
    Alcotest.test_case "predictor: seeded corpus within tolerance" `Slow
      test_predictor_corpus;
    Alcotest.test_case "predictor: catches a stolen line" `Quick
      test_predictor_catches_stolen_line;
    Alcotest.test_case "machine geometry validation" `Quick
      test_machine_geometry_validation;
    Gen.to_alcotest prop_group_counts_consistent;
    Gen.to_alcotest prop_partition_is_partition;
    Gen.to_alcotest prop_spatial_coarsens_temporal;
    Gen.to_alcotest prop_groups_match_reference ]

(* The stream kind and the self-reuse tests as the kernel intersections
   they decide ([ker H ∩ L], [ker H_s ∩ L]), on random access matrices
   over every coordinate subspace of the loops and a random
   non-coordinate one. *)
let prop_stream_kind_matches_intersection =
  let kernel h = Subspace.of_basis ~dim:(Mat.cols h) (Mat.kernel h) in
  QCheck2.Test.make ~name:"reuse: stream kinds == kernel intersections" ~count:300
    ~print:(fun (h, l) -> Format.asprintf "H =@.%a@.L = %a" Mat.pp h Subspace.pp l)
    QCheck2.Gen.(
      let* depth = int_range 1 4 in
      let* rows = int_range 1 3 in
      let* zero_col = option (int_range 0 (depth - 1)) in
      let* entries = list_size (return rows) (list_size (return depth) (int_range (-3) 3)) in
      let h =
        Mat.of_rows_list
          (List.map (List.mapi (fun k x -> if Some k = zero_col then 0 else x)) entries)
      in
      let* basis = list_size (int_range 1 2) (Gen.vec_gen ~dim:depth ~lo:(-2) ~hi:2) in
      return (h, Subspace.of_basis ~dim:depth basis))
    (fun (h, other) ->
      let d = Mat.cols h in
      let agrees localized =
        let st = Subspace.intersect (kernel h) localized in
        let ss = Subspace.intersect (kernel (Selfreuse.spatial_matrix h)) localized in
        let expected =
          if not (Subspace.is_trivial st) then Locality.Invariant
          else if Subspace.dim ss > 0 then Locality.Unit_stride
          else Locality.No_reuse
        in
        Locality.stream_of ~localized h = expected
        && Selfreuse.has_self_temporal ~localized h = not (Subspace.is_trivial st)
        && Selfreuse.has_self_spatial ~localized h = (Subspace.dim ss > Subspace.dim st)
      in
      List.for_all
        (fun mask ->
          agrees
            (Subspace.span_dims ~dim:d (List.filter (fun k -> mask land (1 lsl k) <> 0) (List.init d Fun.id))))
        (List.init (1 lsl d) Fun.id)
      && agrees other)

let suite = suite @ [ Gen.to_alcotest prop_stream_kind_matches_intersection ]

(* The array scan must return the queue scan's classes, in class order
   and member order, temporal and spatial (truncated) alike. *)
let prop_array_scan_matches_queue_scan =
  QCheck2.Test.make ~name:"reuse: array class scan = queue scan reference" ~count:500 ugs_gen
    (fun ((u : Ugs.t), localized) ->
      let ids = List.map (List.map (fun (s : Site.t) -> s.Site.id)) in
      ids (Groups.group_temporal ~localized u).Groups.classes
      = ids (Solve_reference.group_temporal ~localized u)
      && ids (Groups.group_spatial ~localized u).Groups.classes
         = ids (Solve_reference.group_spatial ~localized u))

let suite = suite @ [ Gen.to_alcotest prop_array_scan_matches_queue_scan ]
