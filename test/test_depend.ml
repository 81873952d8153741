(* Dependence analysis: distance vectors, pair tests, graph construction,
   statistics and unroll-and-jam safety. *)

open Ujam_linalg
open Ujam_ir
open Ujam_ir.Build
open Ujam_depend

let v = Vec.of_list
let dvec = Alcotest.testable Depvec.pp Depvec.equal

let test_depvec () =
  Alcotest.(check bool) "zero" true (Depvec.is_zero (Depvec.exact (v [ 0; 0 ])));
  Alcotest.(check bool) "star not zero" false (Depvec.is_zero (Depvec.all_star 2));
  let check_sign name expect d =
    Alcotest.(check string) name expect
      (match Depvec.lex_sign d with
      | `Pos -> "pos"
      | `Neg -> "neg"
      | `Zero -> "zero"
      | `Ambiguous -> "ambiguous")
  in
  check_sign "pos" "pos" (Depvec.exact (v [ 0; 2; -1 ]));
  check_sign "neg" "neg" (Depvec.exact (v [ 0; -1; 5 ]));
  check_sign "zero" "zero" (Depvec.exact (v [ 0; 0 ]));
  check_sign "ambiguous" "ambiguous" [| Depvec.Exact 0; Depvec.Star; Depvec.Exact 1 |];
  Alcotest.check dvec "negate"
    [| Depvec.Exact (-1); Depvec.Star |]
    (Depvec.negate [| Depvec.Exact 1; Depvec.Star |]);
  Alcotest.(check (option int)) "carried level" (Some 1)
    (Depvec.carried_level (Depvec.exact (v [ 0; 3; 0 ])));
  Alcotest.(check (option int)) "loop independent" None
    (Depvec.carried_level (Depvec.exact (v [ 0; 0 ])))

let bounds2 = Some [| (1, 10); (1, 10) |]

let test_pair_uniform () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  (* A(I,J) vs A(I-1,J-2): unique distance (2,1) *)
  let r1 = aref "A" [ i; j ] and r2 = aref "A" [ i -$ 1; j -$ 2 ] in
  (match Test_pair.test ~bounds:bounds2 r1 r2 with
  | Test_pair.Dependent dv ->
      Alcotest.check dvec "strong SIV distance" (Depvec.exact (v [ 2; 1 ])) dv
  | Test_pair.Independent -> Alcotest.fail "expected dependence");
  (* distance exceeding the iteration space *)
  (match Test_pair.test ~bounds:bounds2 r1 (aref "A" [ i -$ 1; j -$ 20 ]) with
  | Test_pair.Independent -> ()
  | Test_pair.Dependent _ -> Alcotest.fail "distance 20 > trip 9");
  (* without bounds the same pair is conservatively dependent *)
  (match Test_pair.test ~bounds:None r1 (aref "A" [ i -$ 1; j -$ 20 ]) with
  | Test_pair.Dependent _ -> ()
  | Test_pair.Independent -> Alcotest.fail "no bounds: cannot disprove")

let test_pair_kernel () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  (* A(J) only uses the outer loop: self distance set spans the inner *)
  let r = aref "A" [ j ] in
  (match Test_pair.test ~bounds:bounds2 r r with
  | Test_pair.Dependent dv ->
      Alcotest.check dvec "invariant self dependence"
        [| Depvec.Exact 0; Depvec.Star |] dv
  | Test_pair.Independent -> Alcotest.fail "expected self dependence");
  (* stride-2 subscripts: A(2J) vs A(2J+1) never overlap *)
  (match Test_pair.test ~bounds:bounds2 (aref "A" [ 2 *$ j ]) (aref "A" [ (2 *$ j) +$ 1 ]) with
  | Test_pair.Independent -> ()
  | Test_pair.Dependent _ -> Alcotest.fail "gcd test should disprove");
  ignore i

let test_pair_nonuniform () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  (* A(I) vs A(J): different H, overlapping ranges -> all-star *)
  (match Test_pair.test ~bounds:bounds2 (aref "A" [ i ]) (aref "A" [ j ]) with
  | Test_pair.Dependent dv -> Alcotest.check dvec "all star" (Depvec.all_star 2) dv
  | Test_pair.Independent -> Alcotest.fail "expected dependence");
  (* Banerjee: disjoint value ranges *)
  (match
     Test_pair.test ~bounds:bounds2 (aref "A" [ i ]) (aref "A" [ j +$ 100 ])
   with
  | Test_pair.Independent -> ()
  | Test_pair.Dependent _ -> Alcotest.fail "Banerjee should disprove");
  (* different arrays never depend *)
  (match Test_pair.test ~bounds:bounds2 (aref "A" [ i ]) (aref "B" [ i ]) with
  | Test_pair.Independent -> ()
  | Test_pair.Dependent _ -> Alcotest.fail "different arrays")

let edge_kinds g =
  List.map
    (fun (e : Graph.edge) -> Format.asprintf "%a" Graph.pp_kind e.Graph.kind)
    g.Graph.edges
  |> List.sort compare

let test_graph_reduction () =
  (* A(J) = A(J) + B(I): flow/anti/output on A are within one location;
     B has a self input dependence. *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let nest =
    nest "reduction"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "A" [ j ] <<- rd "A" [ j ] +: rd "B" [ i ] ]
  in
  let g = Graph.build ~include_input:true nest in
  (* one edge per reference pair: the read/write pair of A carries both
     the flow and anti relation and is recorded once with its star
     distance; each invariant reference has a self input edge *)
  Alcotest.(check (list string)) "edge kinds"
    [ "anti"; "input"; "input"; "output" ]
    (edge_kinds g);
  let no_input = Graph.build ~include_input:false nest in
  Alcotest.(check int) "input excluded" 2 (List.length no_input.Graph.edges);
  let anti =
    List.find (fun (e : Graph.edge) -> e.Graph.kind = Graph.Anti) g.Graph.edges
  in
  Alcotest.check dvec "A pair distance set" [| Depvec.Exact 0; Depvec.Star |]
    anti.Graph.dvec

let test_graph_direction_normalisation () =
  (* write A(I,J); read A(I,J-1): the source must be the write (value
     flows forward one J iteration). *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let fwd_nest =
    nest "fwd"
      [ loop d "J" ~level:0 ~lo:2 ~hi:9 (); loop d "I" ~level:1 ~lo:1 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i; j -$ 1 ] +: f 1.0 ]
  in
  let g = Graph.build ~include_input:true fwd_nest in
  let flow =
    List.find (fun (e : Graph.edge) -> e.Graph.kind = Graph.Flow) g.Graph.edges
  in
  Alcotest.(check bool) "src is the write" true (Site.is_write flow.Graph.src);
  Alcotest.check dvec "distance (1,0)" (Depvec.exact (v [ 1; 0 ])) flow.Graph.dvec;
  (* loop-independent: read and write of the same element in one stmt *)
  let nest2 =
    nest "li"
      [ loop d "J" ~level:0 ~lo:1 ~hi:9 (); loop d "I" ~level:1 ~lo:1 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i; j ] +: f 1.0 ]
  in
  let g2 = Graph.build ~include_input:true nest2 in
  let anti =
    List.find (fun (e : Graph.edge) -> e.Graph.kind = Graph.Anti) g2.Graph.edges
  in
  Alcotest.(check bool) "loop-independent anti from the read" true
    (Depvec.is_zero anti.Graph.dvec && not (Site.is_write anti.Graph.src))

let test_stats () =
  let nest = Ujam_kernels.Kernels.jacobi ~n:16 () in
  let s = Stats.of_graph (Graph.build ~include_input:true nest) in
  (* 4 reads of B: C(4,2) = 6 input pairs *)
  Alcotest.(check int) "jacobi input edges" 6 s.Stats.input;
  Alcotest.(check int) "jacobi flow" 0 s.Stats.flow;
  (match Stats.input_fraction s with
  | Some f -> Alcotest.(check bool) "input dominates" true (f > 0.9)
  | None -> Alcotest.fail "expected stats");
  Alcotest.(check (option (float 0.001))) "empty graph fraction" None
    (Stats.input_fraction Stats.zero);
  let z = Stats.add Stats.zero s in
  Alcotest.(check int) "add" (Stats.total s) (Stats.total z)

let test_safety () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  (* forward-only dependence: any amount is safe *)
  let fwd =
    nest "fwd"
      [ loop d "J" ~level:0 ~lo:2 ~hi:9 (); loop d "I" ~level:1 ~lo:1 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i; j -$ 1 ] +: f 1.0 ]
  in
  let b = Safety.max_safe_unroll (Graph.build ~include_input:false fwd) in
  Alcotest.(check int) "outer unconstrained" max_int b.(0);
  Alcotest.(check int) "innermost never unrolled" 0 b.(1);
  (* (1,-1) dependence: unroll-and-jam of J would reverse it; the carried
     distance 1 caps extra copies at 0. *)
  let skew =
    nest "skew"
      [ loop d "J" ~level:0 ~lo:2 ~hi:9 (); loop d "I" ~level:1 ~lo:1 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i +$ 1; j -$ 1 ] +: f 1.0 ]
  in
  let b = Safety.max_safe_unroll (Graph.build ~include_input:false skew) in
  Alcotest.(check int) "blocking dependence caps J" 0 b.(0);
  (* distance (2,-1): one extra copy is legal, two are not *)
  let skew2 =
    nest "skew2"
      [ loop d "J" ~level:0 ~lo:3 ~hi:10 (); loop d "I" ~level:1 ~lo:1 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i +$ 1; j -$ 2 ] +: f 1.0 ]
  in
  let b = Safety.max_safe_unroll (Graph.build ~include_input:false skew2) in
  Alcotest.(check int) "distance 2 allows one extra copy" 1 b.(0);
  Alcotest.(check bool) "is_safe accepts" true
    (Safety.is_safe (Graph.build ~include_input:false skew2) (v [ 1; 0 ]));
  Alcotest.(check bool) "is_safe rejects" false
    (Safety.is_safe (Graph.build ~include_input:false skew2) (v [ 2; 0 ]))

(* Semantic validation of the safety rule: if max_safe_unroll allows u,
   the transformed loop must compute the same values. *)
let test_safety_semantics () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let skew2 =
    nest "skew2"
      [ loop d "J" ~level:0 ~lo:3 ~hi:10 (); loop d "I" ~level:1 ~lo:2 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i +$ 1; j -$ 2 ] +: f 1.0 ]
  in
  let same u =
    Test_unroll.stores_equal
      (Test_unroll.interpret skew2)
      (Test_unroll.interpret (Unroll.unroll_and_jam skew2 (v u)))
  in
  Alcotest.(check bool) "safe amount preserves semantics" true (same [ 1; 0 ]);
  Alcotest.(check bool) "unsafe amount breaks semantics" false (same [ 3; 0 ])

let prop_edges_have_valid_distance =
  QCheck2.Test.make ~name:"depend: normalised edges lex-nonneg" ~count:150
    (Gen.nest_gen ()) (fun nest ->
      let g = Graph.build ~include_input:true nest in
      List.for_all
        (fun (e : Graph.edge) ->
          match Depvec.lex_sign e.Graph.dvec with
          | `Pos | `Zero | `Ambiguous -> true
          | `Neg -> false)
        g.Graph.edges)

let prop_input_subset =
  QCheck2.Test.make ~name:"depend: include_input only adds input edges" ~count:150
    (Gen.nest_gen ()) (fun nest ->
      let all = Graph.build ~include_input:true nest in
      let no = Graph.build ~include_input:false nest in
      let non_input =
        List.filter (fun (e : Graph.edge) -> e.Graph.kind <> Graph.Input) all.Graph.edges
      in
      List.length non_input = List.length no.Graph.edges
      && List.for_all
           (fun (e : Graph.edge) -> e.Graph.kind <> Graph.Input)
           no.Graph.edges)

(* The reference builder: [Test_pair.test] on every same-array site pair,
   with the same direction normalisation as [Graph.build] but no
   per-(group, difference) memo. *)
let reference_edges ~include_input nest =
  let sites = Array.of_list (Site.of_nest nest) in
  let bounds =
    let loops = Nest.loops nest in
    if
      Array.for_all
        (fun (l : Loop.t) -> Affine.is_constant l.Loop.lo && Affine.is_constant l.Loop.hi)
        loops
    then
      Some (Array.map (fun (l : Loop.t) -> (l.Loop.lo.Affine.const, l.Loop.hi.Affine.const)) loops)
    else None
  in
  let kind (src : Site.t) (dst : Site.t) =
    match (Site.is_write src, Site.is_write dst) with
    | true, false -> Graph.Flow
    | false, true -> Graph.Anti
    | true, true -> Graph.Output
    | false, false -> Graph.Input
  in
  let edges = ref [] in
  let add (src : Site.t) (dst : Site.t) dv =
    edges := (src.Site.id, dst.Site.id, kind src dst, dv) :: !edges
  in
  let n = Array.length sites in
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let sa = sites.(a) and sb = sites.(b) in
      let both_reads = (not (Site.is_write sa)) && not (Site.is_write sb) in
      if (include_input || not both_reads)
         && String.equal (Aref.base sa.Site.ref_) (Aref.base sb.Site.ref_)
      then
        match Test_pair.test ~bounds sa.Site.ref_ sb.Site.ref_ with
        | Test_pair.Independent -> ()
        | Test_pair.Dependent dv -> (
            match Depvec.lex_sign dv with
            | `Pos | `Ambiguous -> add sa sb dv
            | `Neg -> add sb sa (Depvec.negate dv)
            | `Zero ->
                if a <> b then
                  if sa.Site.stmt < sb.Site.stmt then add sa sb dv
                  else if sb.Site.stmt < sa.Site.stmt then add sb sa dv
                  else if Site.is_write sb then add sa sb dv
                  else if Site.is_write sa then add sb sa dv
                  else add sa sb dv)
    done
  done;
  List.rev !edges

let graph_edges ~include_input nest =
  List.map
    (fun (e : Graph.edge) -> (e.Graph.src.Site.id, e.Graph.dst.Site.id, e.Graph.kind, e.Graph.dvec))
    (Graph.build ~include_input nest).Graph.edges

(* Nests over arbitrary small access matrices, coupled ones included:
   per array one rank and one or two shapes [H], each reference taking a
   shape and a constant vector, so most same-array pairs are uniform. *)
let matrix_nest_gen =
  let open QCheck2.Gen in
  let* depth = int_range 2 3 in
  let loops =
    List.init depth (fun level ->
        Loop.make_const ~var:(String.make 1 "IJK".[level]) ~level ~depth ~lo:1 ~hi:10 ())
  in
  let shape rank = list_size (return rank) (array_size (return depth) (int_range (-1) 2)) in
  let* refs =
    flatten_l
      (List.map
         (fun base ->
           let* rank = int_range 1 2 in
           let* shapes = list_size (int_range 1 2) (shape rank) in
           list_size (int_range 1 4)
             (let* coefs = oneofl shapes in
              let* consts = list_size (return rank) (int_range (-3) 3) in
              return
                (Aref.make base
                   (List.map2 (fun coefs const -> Affine.make ~coefs ~const) coefs consts))))
         [ "A"; "B" ])
  in
  let refs = Array.of_list (List.concat refs) in
  let pick = map (fun i -> refs.(i)) (int_range 0 (Array.length refs - 1)) in
  let* body =
    list_size (int_range 1 3)
      (let* lhs = pick in
       let* reads = list_size (int_range 1 3) pick in
       let reads = List.map (fun r -> Expr.Read r) reads in
       return
         (Stmt.store lhs
            (List.fold_left (fun acc r -> Expr.Bin (Expr.Add, acc, r)) (List.hd reads) (List.tl reads))))
  in
  return (Nest.make ~name:"matrix" ~loops ~body)

let prop_graph_matches_reference =
  QCheck2.Test.make ~name:"depend: graph equals the all-pairs reference" ~count:100
    ~print:(fun (n, u) -> Nest.to_string n ^ " u=" ^ Vec.to_string u)
    QCheck2.Gen.(
      let* nest = oneof [ Gen.nest_gen (); matrix_nest_gen ] in
      let* space = Gen.space_gen nest in
      return (nest, Vec.make (Ujam_core.Unroll_space.bounds space)))
    (fun (nest, u) ->
      List.for_all
        (fun n ->
          List.for_all
            (fun include_input ->
              graph_edges ~include_input n = reference_edges ~include_input n)
            [ true; false ])
        [ nest; Unroll.unroll_and_jam nest u ])

let loops2 d = [ loop d "J" ~level:0 ~lo:1 ~hi:9 (); loop d "I" ~level:1 ~lo:1 ~hi:9 () ]

let test_group_arrays () =
  (* A and B share H = identity: they are distinct groups, so no edge
     joins them and each array's edges are its own. *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let n =
    nest "two arrays" (loops2 d)
      [ aref "A" [ i; j ] <<- rd "B" [ i; j -$ 1 ] +: rd "A" [ i; j -$ 1 ];
        aref "B" [ i; j ] <<- rd "A" [ i; j -$ 2 ] ]
  in
  let g = Graph.build ~include_input:true n in
  Alcotest.(check bool) "edges stay within one array" true
    (List.for_all
       (fun (e : Graph.edge) ->
         String.equal (Aref.base e.Graph.src.Site.ref_) (Aref.base e.Graph.dst.Site.ref_))
       g.Graph.edges);
  Alcotest.(check bool) "equals the reference" true
    (graph_edges ~include_input:true n = reference_edges ~include_input:true n)

let test_group_ranks () =
  (* A(J) and A(I,J): one array at two ranks is never memoised; the pair
     is conservatively all-Star. *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let n = nest "ranks" (loops2 d) [ aref "A" [ j ] <<- rd "A" [ i; j ] ] in
  let cross (e : Graph.edge) = e.Graph.src.Site.id <> e.Graph.dst.Site.id in
  match List.filter cross (Graph.build ~include_input:false n).Graph.edges with
  | [ e ] -> Alcotest.check dvec "all star" (Depvec.all_star 2) e.Graph.dvec
  | es -> Alcotest.failf "expected one edge between the sites, got %d" (List.length es)

let test_group_non_integral () =
  (* H d = (1, 0) has the rational solution (1/2, 1/2) only. *)
  let coupled = Test_pair.prepare (Mat.of_rows [| [| 1; 1 |]; [| 1; -1 |] |]) in
  (match Test_pair.uniform ~bounds:bounds2 coupled [| 1; 0 |] with
  | Test_pair.Dependent dv -> Alcotest.check dvec "coupled: all star" (Depvec.all_star 2) dv
  | Test_pair.Independent -> Alcotest.fail "coupled H must stay conservative");
  let separable = Test_pair.prepare (Mat.of_rows [| [| 2; 0 |]; [| 0; 1 |] |]) in
  (match Test_pair.uniform ~bounds:bounds2 separable [| 1; 0 |] with
  | Test_pair.Independent -> ()
  | Test_pair.Dependent _ -> Alcotest.fail "separable H: no integer solution");
  (* the same facts through the graph: A(J+I, J-I) vs A(J+I+1, J-I) *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let n =
    nest "coupled" (loops2 d)
      [ aref "A" [ j ++$ i; j ++$ ((-1) *$ i) ] <<- rd "A" [ (j ++$ i) +$ 1; j ++$ ((-1) *$ i) ] ]
  in
  match (Graph.build ~include_input:false n).Graph.edges with
  | [ e ] -> Alcotest.check dvec "graph: all star" (Depvec.all_star 2) e.Graph.dvec
  | es -> Alcotest.failf "expected one edge, got %d" (List.length es)

let test_group_negated () =
  let p = Test_pair.prepare (Mat.of_rows [| [| 0; 1 |]; [| 1; 0 |] |]) in
  (match (Test_pair.uniform ~bounds:bounds2 p [| 0; 1 |], Test_pair.uniform ~bounds:bounds2 p [| 0; -1 |]) with
  | Test_pair.Dependent a, Test_pair.Dependent b ->
      Alcotest.check dvec "dc" (Depvec.exact (v [ 1; 0 ])) a;
      Alcotest.check dvec "-dc" (Depvec.negate a) b
  | _ -> Alcotest.fail "expected two dependences");
  (* A(I,J) = A(I,J-1) + A(I,J+1): after normalisation both edges carry
     (1,0), one from the write (flow) and one into it (anti). *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let n =
    nest "negated" (loops2 d)
      [ aref "A" [ i; j ] <<- rd "A" [ i; j -$ 1 ] +: rd "A" [ i; j +$ 1 ] ]
  in
  let es = (Graph.build ~include_input:false n).Graph.edges in
  let find k = List.find (fun (e : Graph.edge) -> e.Graph.kind = k) es in
  let flow = find Graph.Flow and anti = find Graph.Anti in
  Alcotest.check dvec "flow (1,0)" (Depvec.exact (v [ 1; 0 ])) flow.Graph.dvec;
  Alcotest.check dvec "anti (1,0)" (Depvec.exact (v [ 1; 0 ])) anti.Graph.dvec;
  Alcotest.(check bool) "flow leaves the write, anti enters it" true
    (Site.is_write flow.Graph.src && Site.is_write anti.Graph.dst)

let test_dot_export () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:8 () in
  let dot = Graph.to_dot (Graph.build ~include_input:true nest) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length dot then false
      else if String.sub dot i n = sub then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "write node boxed" true (contains "shape=box");
  Alcotest.(check bool) "input edges dashed" true (contains "style=dashed");
  Alcotest.(check bool) "distance labels" true (contains "(0,*)")

let suite =
  [ Alcotest.test_case "depvec" `Quick test_depvec;
    Alcotest.test_case "uniform pairs" `Quick test_pair_uniform;
    Alcotest.test_case "kernel distances" `Quick test_pair_kernel;
    Alcotest.test_case "non-uniform pairs" `Quick test_pair_nonuniform;
    Alcotest.test_case "reduction graph" `Quick test_graph_reduction;
    Alcotest.test_case "direction normalisation" `Quick test_graph_direction_normalisation;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "safety bounds" `Quick test_safety;
    Alcotest.test_case "safety semantics" `Quick test_safety_semantics;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Gen.to_alcotest prop_edges_have_valid_distance;
    Alcotest.test_case "group: arrays" `Quick test_group_arrays;
    Alcotest.test_case "group: ranks" `Quick test_group_ranks;
    Alcotest.test_case "group: non-integral" `Quick test_group_non_integral;
    Alcotest.test_case "group: negated" `Quick test_group_negated;
    Gen.to_alcotest prop_input_subset;
    Gen.to_alcotest prop_graph_matches_reference ]

(* [Test_pair.uniform] against the rational solve it was served by: the
   three outcomes of the particular solution, read as before. *)
let reference_uniform ~bounds h rhs =
  let depth = Mat.cols h in
  let touched = Array.make depth false in
  List.iter
    (fun k -> Array.iteri (fun i x -> if x <> 0 then touched.(i) <- true) (Vec.to_array k))
    (Mat.kernel h);
  let full = Solve_reference.prepare h (Subspace.full depth) in
  match Solve_reference.outcome full (Vec.make rhs) with
  | Subspace.No_solution -> Test_pair.Independent
  | Subspace.Fractional when Mat.is_separable_siv h -> Test_pair.Independent
  | Subspace.Fractional -> Test_pair.Dependent (Depvec.all_star depth)
  | Subspace.Integral x ->
      let dvec =
        Array.mapi (fun k t -> if t then Depvec.Star else Depvec.Exact (Vec.get x k)) touched
      in
      let out e (lo, hi) = match e with Depvec.Exact d -> abs d > hi - lo | Depvec.Star -> false in
      let beyond bs = List.exists2 out (Array.to_list dvec) (Array.to_list bs) in
      if Option.fold ~none:false ~some:beyond bounds then Test_pair.Independent
      else Test_pair.Dependent dvec

let prop_uniform_matches_rat =
  QCheck2.Test.make ~name:"depend: uniform pair test = Rat reference" ~count:500
    QCheck2.Gen.(
      let* h = Test_subspace.matrix_gen in
      let d = Mat.cols h in
      let* rhss = list_size (int_range 1 6) (Test_subspace.any_rhs_gen h (Subspace.full d)) in
      let* bounded = bool in
      return (h, List.map Vec.to_array rhss, if bounded then Some (Array.make d (1, 3)) else None))
    (fun (h, rhss, bounds) ->
      let p = Test_pair.prepare h in
      let same a b =
        match (a, b) with
        | Test_pair.Independent, Test_pair.Independent -> true
        | Test_pair.Dependent x, Test_pair.Dependent y -> Depvec.equal x y
        | _ -> false
      in
      List.for_all
        (fun rhs -> same (Test_pair.uniform ~bounds p rhs) (reference_uniform ~bounds h rhs))
        rhss)

let suite = suite @ [ Gen.to_alcotest prop_uniform_matches_rat ]
