open Ujam_linalg

type t = { base : string; subs : Affine.t array }

let make base subs =
  let subs = Array.of_list subs in
  if Array.length subs = 0 then invalid_arg "Aref.make: no subscripts";
  let d = Affine.depth subs.(0) in
  Array.iter
    (fun s -> if Affine.depth s <> d then invalid_arg "Aref.make: mixed depths")
    subs;
  { base; subs }

let base t = t.base
let rank t = Array.length t.subs
let depth t = Affine.depth t.subs.(0)

let h_matrix t = Mat.of_rows (Array.map (fun (s : Affine.t) -> s.Affine.coefs) t.subs)
let c_vector t = Vec.init (rank t) (fun i -> t.subs.(i).Affine.const)

let shift t o =
  let subs = Array.map (fun s -> Affine.shift s o) t.subs in
  if Array.for_all2 ( == ) subs t.subs then t else { t with subs }

let equal a b =
  a == b
  || String.equal a.base b.base
     && Array.length a.subs = Array.length b.subs
     && Array.for_all2 Affine.equal a.subs b.subs

let rec compare_from a b k =
  if k = Array.length a.subs then 0
  else match Affine.compare a.subs.(k) b.subs.(k) with 0 -> compare_from a b (k + 1) | c -> c

let compare a b =
  match String.compare a.base b.base with
  | 0 -> (
      match Int.compare (Array.length a.subs) (Array.length b.subs) with
      | 0 -> compare_from a b 0
      | c -> c)
  | c -> c

let uses_level t k = Array.exists (fun s -> Affine.uses_level s k) t.subs

let is_separable_siv t = Mat.is_separable_siv (h_matrix t)

let pp ~var_name ppf t =
  Format.fprintf ppf "%s(%a)" t.base
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (Affine.pp ~var_name))
    (Array.to_list t.subs)
