type t = int array

let make a = Array.copy a
let of_list = Array.of_list
let init = Array.init
let zero n = Array.make n 0
let unit n i = Array.init n (fun j -> if j = i then 1 else 0)

let dim = Array.length
let get = Array.get
let to_array = Array.copy
let to_list = Array.to_list

let set t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let map2 f a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.map2: dimension";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let map = Array.map
let add = map2 ( + )
let sub = map2 ( - )
let neg = map (fun x -> -x)
let scale k = map (fun x -> k * x)

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.dot: dimension";
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + (a.(i) * b.(i))
  done;
  !s

let exists = Array.exists
let for_all = Array.for_all
let fold = Array.fold_left

let is_zero = for_all (fun x -> x = 0)
let equal a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 ( = ) a b)

let compare a b =
  let c = Stdlib.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else Stdlib.compare a b

let compare_pointwise a b =
  if Array.length a <> Array.length b then None
  else begin
    let le = ref true and ge = ref true in
    for i = 0 to Array.length a - 1 do
      if a.(i) < b.(i) then ge := false;
      if a.(i) > b.(i) then le := false
    done;
    match (!le, !ge) with
    | true, true -> Some 0
    | true, false -> Some (-1)
    | false, true -> Some 1
    | false, false -> None
  end

let leq_pointwise (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) <= b.(!i) do
    incr i
  done;
  !i = n

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
