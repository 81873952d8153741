type t = { coefs : int array; const : int }

let make ~coefs ~const = { coefs = Array.copy coefs; const }
let const ~depth c = { coefs = Array.make depth 0; const = c }

let var ~depth k =
  if k < 0 || k >= depth then invalid_arg "Affine.var: level out of range";
  let coefs = Array.make depth 0 in
  coefs.(k) <- 1;
  { coefs; const = 0 }

let depth t = Array.length t.coefs

(* Plain loops: no closure and no boxed accumulator per call (the
   simulator and the interpreter evaluate per access). *)
let eval t iv =
  let s = ref t.const in
  for k = 0 to Array.length t.coefs - 1 do
    s := !s + (t.coefs.(k) * iv.(k))
  done;
  !s

let add a b =
  if depth a <> depth b then invalid_arg "Affine.add: depth";
  { coefs = Array.map2 ( + ) a.coefs b.coefs; const = a.const + b.const }

let add_const t c = { t with const = t.const + c }
let scale k t = { coefs = Array.map (fun c -> k * c) t.coefs; const = k * t.const }

let shift t o =
  if Array.length o <> depth t then invalid_arg "Affine.shift: depth";
  let delta = ref 0 in
  for k = 0 to Array.length t.coefs - 1 do
    delta := !delta + (t.coefs.(k) * o.(k))
  done;
  (* Zero-offset shifts (every unchanged copy in an unroll-and-jam
     body) return the original, so unchanged subtrees stay shared. *)
  if !delta = 0 then t else { t with const = t.const + !delta }

let subst t images =
  if Array.length images <> depth t then invalid_arg "Affine.subst: depth";
  let out_depth =
    if Array.length images = 0 then 0 else depth images.(0)
  in
  Array.iter
    (fun im -> if depth im <> out_depth then invalid_arg "Affine.subst: image depth")
    images;
  let coefs = Array.make out_depth 0 in
  let const = ref t.const in
  Array.iteri
    (fun k c ->
      if c <> 0 then begin
        Array.iteri (fun j cj -> coefs.(j) <- coefs.(j) + (c * cj)) images.(k).coefs;
        const := !const + (c * images.(k).const)
      end)
    t.coefs;
  { coefs; const = !const }

let equal a b =
  a == b || (a.const = b.const && Array.for_all2 ( = ) a.coefs b.coefs)
(* [Stdlib.compare] on [(coefs, const)]: shorter [coefs] first, then lex. *)
let rec compare_from a b k =
  if k = Array.length a.coefs then Int.compare a.const b.const
  else match Int.compare a.coefs.(k) b.coefs.(k) with 0 -> compare_from a b (k + 1) | c -> c

let compare a b =
  match Int.compare (Array.length a.coefs) (Array.length b.coefs) with
  | 0 -> compare_from a b 0
  | c -> c

let uses_level t k = t.coefs.(k) <> 0
let is_constant t = Array.for_all (fun c -> c = 0) t.coefs

let pp ~var_name ppf t =
  let first = ref true in
  let emit fmt =
    Format.kasprintf
      (fun s ->
        if !first then first := false
        else if String.length s > 0 && s.[0] <> '-' then Format.pp_print_string ppf "+";
        Format.pp_print_string ppf s)
      fmt
  in
  Array.iteri
    (fun k c ->
      if c <> 0 then
        if c = 1 then emit "%s" (var_name k)
        else if c = -1 then emit "-%s" (var_name k)
        else emit "%d*%s" c (var_name k))
    t.coefs;
  if t.const <> 0 || !first then emit "%d" t.const
