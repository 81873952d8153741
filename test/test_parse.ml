(* The Fortran-style parser: acceptance, rejection, and the round trip
   with the pretty printer. *)

open Ujam_ir

let parse s =
  match Parse.nest s with
  | Ok n -> n
  | Error e -> Alcotest.failf "parse failed: %a" Parse.pp_error e

let reject ?(substring = "") s =
  match Parse.nest s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error e ->
      if substring <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %S (got %S)" substring e.Parse.message)
          true
          (let n = String.length substring in
           let rec go i =
             if i + n > String.length e.Parse.message then false
             else if String.sub e.Parse.message i n = substring then true
             else go (i + 1)
           in
           go 0)

let test_simple () =
  let n =
    parse {|
DO J = 1, 10
  DO I = 1, 20
    A(I,J) = A(I,J) + B(I-1,J) * 0.25
  ENDDO
ENDDO
|}
  in
  Alcotest.(check int) "depth" 2 (Nest.depth n);
  Alcotest.(check int) "one stmt" 1 (List.length (Nest.body n));
  Alcotest.(check int) "three refs" 3 (List.length (Nest.refs n));
  Alcotest.(check string) "outer var" "J" (Nest.var_name n 0);
  Alcotest.(check (option int)) "iterations" (Some 200) (Nest.iterations n)

let test_features () =
  let n =
    parse {|
DO I = 1, 16, 2            ! stepped loop
  DO J = I, 16             ! triangular bound
    A(2*J-1) = -(B(J) + C) / 4.0 + X(I+J)
  ENDDO
ENDDO
|}
  in
  Alcotest.(check int) "step parsed" 2 (Nest.loops n).(0).Loop.step;
  let w = List.hd (List.filter_map (fun (r, k) -> if k = `Write then Some r else None) (Nest.refs n)) in
  Alcotest.(check bool) "coefficient-2 subscript" true
    (Array.exists (fun c -> c = 2) w.Aref.subs.(0).Affine.coefs);
  Alcotest.(check int) "constant" (-1) w.Aref.subs.(0).Affine.const;
  (* scalar C survives as a scalar, X(I+J) is a coupled read *)
  let stmt = List.hd (Nest.body n) in
  Alcotest.(check (list string)) "scalars" [ "C" ] (Expr.scalars stmt.Stmt.rhs);
  Alcotest.(check int) "reads" 2 (List.length (Stmt.reads stmt));
  Alcotest.(check int) "flops" 3 (Stmt.flops stmt)

let test_scalar_statement () =
  let n =
    parse {|
DO I = 1, 4
  T = A(I) * 2.0
  B(I) = T
ENDDO
|}
  in
  match Nest.body n with
  | [ s1; s2 ] ->
      Alcotest.(check bool) "first assigns a scalar" true
        (match s1.Stmt.lhs with Stmt.Scalar_var "T" -> true | _ -> false);
      Alcotest.(check bool) "second stores" true
        (match s2.Stmt.lhs with Stmt.Array_elt _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected two statements"

let test_errors () =
  reject ~substring:"no DO header" "A(I) = 1.0";
  reject ~substring:"ENDDO" "DO I = 1, 4\n  A(I) = 1.0\n";
  reject ~substring:"unknown loop variable" "DO I = 1, 4\n  A(K) = 1.0\nENDDO";
  reject ~substring:"empty loop body" "DO I = 1, 4\nENDDO";
  reject ~substring:"malformed DO" "DO = 1, 4\n  A(I) = 1.0\nENDDO";
  reject ~substring:"ENDDO" "DO I = 1, 4\n  A(I) = 1.0\nENDDO\nENDDO";
  reject ~substring:"unexpected character" "DO I = 1, 4\n  A(I) = 1.0 @ 2\nENDDO";
  (* numeric literals the host cannot represent *)
  reject ~substring:"out of range"
    "DO I = 1, 99999999999999999999999\n  A(I) = 1.0\nENDDO";
  reject ~substring:"malformed number" "DO I = 1, 4\n  A(I) = B(I) * 1e-\nENDDO";
  (* inner variable in an outer bound *)
  reject "DO I = J, 4\n  DO J = 1, 3\n    A(I,J) = 1.0\n  ENDDO\nENDDO"

let test_roundtrip_kernels () =
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let text = Nest.to_string nest in
      match Parse.nest ~name:(Nest.name nest) text with
      | Error err ->
          Alcotest.failf "%s does not re-parse: %a@.%s" e.Ujam_kernels.Catalogue.name
            Parse.pp_error err text
      | Ok reparsed ->
          Alcotest.(check string)
            (e.Ujam_kernels.Catalogue.name ^ " round-trips")
            text
            (Nest.to_string reparsed))
    Ujam_kernels.Catalogue.all

let test_roundtrip_transformed () =
  (* the pretty-printed output of unroll-and-jam + scalar replacement
     also stays within the parser's language *)
  let open Ujam_core in
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let r = Driver.optimize ~bound:3 ~machine:Ujam_machine.Presets.alpha nest in
  let out = Scalar_replace.apply r.Driver.transformed r.Driver.plan in
  let text = Nest.to_string out in
  match Parse.nest text with
  | Error err -> Alcotest.failf "transformed loop does not re-parse: %a" Parse.pp_error err
  | Ok reparsed ->
      Alcotest.(check string) "transformed round-trips" text (Nest.to_string reparsed)

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"parse: pp then parse is the identity" ~count:150
    ~print:Gen.nest_print (Gen.nest_gen ())
    (fun nest ->
      match Parse.nest (Nest.to_string nest) with
      | Error _ -> false
      | Ok reparsed -> String.equal (Nest.to_string nest) (Nest.to_string reparsed))

let suite =
  [ Alcotest.test_case "simple nest" `Quick test_simple;
    Alcotest.test_case "steps, triangular, coefficients" `Quick test_features;
    Alcotest.test_case "scalar statements" `Quick test_scalar_statement;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "kernel suite round-trips" `Quick test_roundtrip_kernels;
    Alcotest.test_case "transformed code round-trips" `Quick test_roundtrip_transformed;
    Gen.to_alcotest prop_roundtrip_random ]
