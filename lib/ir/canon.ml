(* Canonical forms and content digests of loop nests.

   The canonical representative renames loop variables positionally,
   drops the nest label, and sorts the operand pairs of commutative
   floating-point operations under a total structural order.  Sorting
   is pairwise (no reassociation), so the representative evaluates to
   bit-identical results: IEEE addition and multiplication commute.
   The encoding is self-delimiting — every variable-length field is
   length-prefixed or bracketed — so distinct structures cannot encode
   to one string, and the MD5 digest of the canonical encoding is a
   content address for the whole optimization problem. *)

(* Total structural order on expressions: constructor rank first, then
   componentwise.  Float literals compare by IEEE bit pattern so 0.0
   and -0.0 (different constants in the IR) stay distinct. *)
let rec compare_expr (a : Expr.t) (b : Expr.t) =
  let rank = function
    | Expr.Const _ -> 0
    | Expr.Scalar _ -> 1
    | Expr.Read _ -> 2
    | Expr.Neg _ -> 3
    | Expr.Bin _ -> 4
  in
  match (a, b) with
  | Expr.Const x, Expr.Const y ->
      Int64.compare (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Expr.Scalar x, Expr.Scalar y -> String.compare x y
  | Expr.Read x, Expr.Read y -> Aref.compare x y
  | Expr.Neg x, Expr.Neg y -> compare_expr x y
  | Expr.Bin (op, x1, x2), Expr.Bin (oq, y1, y2) ->
      let c = Stdlib.compare op oq in
      if c <> 0 then c
      else
        let c = compare_expr x1 y1 in
        if c <> 0 then c else compare_expr x2 y2
  | _ -> Int.compare (rank a) (rank b)

let rec canon_expr (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Scalar _ | Expr.Read _ -> e
  | Expr.Neg a -> Expr.Neg (canon_expr a)
  | Expr.Bin (op, a, b) ->
      let a = canon_expr a and b = canon_expr b in
      let commutative = match op with
        | Expr.Add | Expr.Mul -> true
        | Expr.Sub | Expr.Div -> false
      in
      if commutative && compare_expr b a < 0 then Expr.Bin (op, b, a)
      else Expr.Bin (op, a, b)

let canon (n : Nest.t) =
  let loops =
    Array.to_list (Nest.loops n)
    |> List.map (fun (l : Loop.t) ->
           Loop.make
             ~var:(Printf.sprintf "i%d" l.Loop.level)
             ~level:l.Loop.level ~lo:l.Loop.lo ~hi:l.Loop.hi ~step:l.Loop.step)
  in
  let body =
    List.map
      (fun (s : Stmt.t) -> Stmt.assign s.Stmt.lhs (canon_expr s.Stmt.rhs))
      (Nest.body n)
  in
  Nest.make ~name:"" ~loops ~body

(* ---- encoding ------------------------------------------------------- *)

let enc_str buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let enc_affine buf (a : Affine.t) =
  Buffer.add_char buf '[';
  Array.iter
    (fun c ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf ',')
    a.Affine.coefs;
  Buffer.add_char buf '+';
  Buffer.add_string buf (string_of_int a.Affine.const);
  Buffer.add_char buf ']'

let enc_aref buf (r : Aref.t) =
  Buffer.add_char buf 'A';
  enc_str buf r.Aref.base;
  Buffer.add_char buf '(';
  Array.iter (enc_affine buf) r.Aref.subs;
  Buffer.add_char buf ')'

let rec enc_expr buf (e : Expr.t) =
  match e with
  | Expr.Const f ->
      Buffer.add_char buf '#';
      Buffer.add_string buf (Printf.sprintf "%Lx" (Int64.bits_of_float f))
  | Expr.Scalar s ->
      Buffer.add_char buf '$';
      enc_str buf s
  | Expr.Read r -> enc_aref buf r
  | Expr.Neg a ->
      Buffer.add_char buf '~';
      enc_expr buf a
  | Expr.Bin (op, a, b) ->
      Buffer.add_char buf
        (match op with
        | Expr.Add -> '+'
        | Expr.Sub -> '-'
        | Expr.Mul -> '*'
        | Expr.Div -> '/');
      Buffer.add_char buf '(';
      enc_expr buf a;
      Buffer.add_char buf ';';
      enc_expr buf b;
      Buffer.add_char buf ')'

let encode (n : Nest.t) =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'N';
  enc_str buf (Nest.name n);
  Buffer.add_string buf (string_of_int (Nest.depth n));
  Array.iter
    (fun (l : Loop.t) ->
      Buffer.add_char buf 'L';
      enc_str buf l.Loop.var;
      enc_affine buf l.Loop.lo;
      enc_affine buf l.Loop.hi;
      Buffer.add_string buf (string_of_int l.Loop.step))
    (Nest.loops n);
  List.iter
    (fun (s : Stmt.t) ->
      (match s.Stmt.lhs with
      | Stmt.Array_elt r ->
          Buffer.add_char buf 'W';
          enc_aref buf r
      | Stmt.Scalar_var v ->
          Buffer.add_char buf 'V';
          enc_str buf v);
      Buffer.add_char buf '=';
      enc_expr buf s.Stmt.rhs)
    (Nest.body n);
  Buffer.contents buf

let digest n = Digest.to_hex (Digest.string (encode (canon n)))

let memo_clear () = ()

let equal a b = a == b || String.equal (encode (canon a)) (encode (canon b))
