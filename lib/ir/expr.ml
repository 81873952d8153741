type binop = Add | Sub | Mul | Div

type t =
  | Const of float
  | Scalar of string
  | Read of Aref.t
  | Neg of t
  | Bin of binop * t * t

let rec flops = function
  | Const _ | Scalar _ | Read _ -> 0
  | Neg e -> flops e
  | Bin (_, a, b) -> 1 + flops a + flops b

let reads e =
  let rec go acc = function
    | Const _ | Scalar _ -> acc
    | Read r -> r :: acc
    | Neg e -> go acc e
    | Bin (_, a, b) -> go (go acc a) b
  in
  List.rev (go [] e)

let scalars e =
  let rec go acc = function
    | Const _ | Read _ -> acc
    | Scalar s -> s :: acc
    | Neg e -> go acc e
    | Bin (_, a, b) -> go (go acc a) b
  in
  List.rev (go [] e)

(* Rebuilds preserve physical identity when [f] does: an unchanged
   subtree comes back as the same object, so zero-offset shifts of
   expressions share wholesale. *)
let rec map_refs f = function
  | (Const _ | Scalar _) as e -> e
  | Read r as e ->
      let r' = f r in
      if r' == r then e else Read r'
  | Neg a as e ->
      let a' = map_refs f a in
      if a' == a then e else Neg a'
  | Bin (op, a, b) as e ->
      let a' = map_refs f a in
      let b' = map_refs f b in
      if a' == a && b' == b then e else Bin (op, a', b')

(* Callers thread state through [f] in textual read order, so the
   traversal must be explicitly left-to-right (constructor arguments
   evaluate right-to-left in OCaml). *)
let rec substitute f = function
  | (Const _ | Scalar _) as e -> e
  | Read r as e -> ( match f r with Some v -> v | None -> e)
  | Neg a as e ->
      let a' = substitute f a in
      if a' == a then e else Neg a'
  | Bin (op, a, b) as e ->
      let a' = substitute f a in
      let b' = substitute f b in
      if a' == a && b' == b then e else Bin (op, a', b')

let shift e o = map_refs (fun r -> Aref.shift r o) e

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Const x, Const y -> Float.equal x y
  | Scalar x, Scalar y -> String.equal x y
  | Read x, Read y -> Aref.equal x y
  | Neg x, Neg y -> equal x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | (Const _ | Scalar _ | Read _ | Neg _ | Bin _), _ -> false

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/")

let prec = function Add | Sub -> 1 | Mul | Div -> 2

let pp ~var_name ppf e =
  let rec go ctx ppf = function
    | Const f ->
        if Float.is_integer f && Float.abs f < 1e6 then
          Format.fprintf ppf "%.1f" f
        else Format.fprintf ppf "%g" f
    | Scalar s -> Format.pp_print_string ppf s
    | Read r -> Aref.pp ~var_name ppf r
    | Neg e -> Format.fprintf ppf "-%a" (go 3) e
    | Bin (op, a, b) ->
        let p = prec op in
        let body ppf () =
          Format.fprintf ppf "%a %a %a" (go p) a pp_binop op (go (p + 1)) b
        in
        if p < ctx then Format.fprintf ppf "(%a)" body ()
        else body ppf ()
  in
  go 0 ppf e
