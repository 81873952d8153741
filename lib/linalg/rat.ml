type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd (Stdlib.abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }

let zero = of_int 0
let one = of_int 1

let num t = t.num
let den t = t.den

let is_zero t = t.num = 0
let is_integer t = t.den = 1

let to_int_exn t =
  if t.den <> 1 then invalid_arg "Rat.to_int_exn: not an integer";
  t.num

let to_float t = float_of_int t.num /. float_of_int t.den

let neg t = { t with num = -t.num }
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = add a (neg b)
let mul a b = make (a.num * b.num) (a.den * b.den)

let inv t =
  if t.num = 0 then raise Division_by_zero;
  make t.den t.num

let div a b = mul a (inv b)
let abs t = { t with num = Stdlib.abs t.num }

(* Canonical forms make cross-multiplication comparison exact. *)
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let sign t = Stdlib.compare t.num 0

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0

let pp ppf t =
  if Stdlib.( = ) t.den 1 then Format.fprintf ppf "%d" t.num
  else Format.fprintf ppf "%d/%d" t.num t.den
