type t = { nrows : int; ncols : int; data : int array array }

let of_rows rows =
  let nrows = Array.length rows in
  let ncols = if nrows = 0 then 0 else Array.length rows.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> ncols then invalid_arg "Mat.of_rows: ragged rows")
    rows;
  { nrows; ncols; data = Array.map Array.copy rows }

let of_rows_list rows = of_rows (Array.of_list (List.map Array.of_list rows))

let init ~rows ~cols f =
  { nrows = rows; ncols = cols; data = Array.init rows (fun i -> Array.init cols (f i)) }

let zero ~rows ~cols = init ~rows ~cols (fun _ _ -> 0)
let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1 else 0)

let rows t = t.nrows
let cols t = t.ncols
let get t i j = t.data.(i).(j)
let row t i = Vec.make t.data.(i)
let col t j = Vec.init t.nrows (fun i -> t.data.(i).(j))

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && Array.for_all2 (fun ra rb -> Array.for_all2 ( = ) ra rb) a.data b.data

let transpose t = init ~rows:t.ncols ~cols:t.nrows (fun i j -> t.data.(j).(i))

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Mat.mul: dimension";
  init ~rows:a.nrows ~cols:b.ncols (fun i j ->
      let s = ref 0 in
      for k = 0 to a.ncols - 1 do
        s := !s + (a.data.(i).(k) * b.data.(k).(j))
      done;
      !s)

let apply t v =
  if Vec.dim v <> t.ncols then invalid_arg "Mat.apply: dimension";
  Vec.init t.nrows (fun i ->
      let s = ref 0 in
      for j = 0 to t.ncols - 1 do
        s := !s + (t.data.(i).(j) * Vec.get v j)
      done;
      !s)

let zero_row t i =
  let data = Array.map Array.copy t.data in
  data.(i) <- Array.make t.ncols 0;
  { t with data }

let zero_col t j =
  let data = Array.map Array.copy t.data in
  Array.iter (fun r -> r.(j) <- 0) data;
  { t with data }

let hstack a b =
  if a.nrows <> b.nrows then invalid_arg "Mat.hstack: row count";
  init ~rows:a.nrows ~cols:(a.ncols + b.ncols) (fun i j ->
      if j < a.ncols then a.data.(i).(j) else b.data.(i).(j - a.ncols))

let of_cols vs dim =
  let ncols = List.length vs in
  let arr = Array.of_list vs in
  Array.iter (fun v -> if Vec.dim v <> dim then invalid_arg "Mat.of_cols: dimension") arr;
  init ~rows:dim ~cols:ncols (fun i j -> Vec.get arr.(j) i)

(* Reduced row echelon form over rationals.  Returns the reduced matrix
   and the pivot column of each pivot row. *)
let rref_rat ?pivot_cols (m : Rat.t array array) : Rat.t array array * int array =
  let nrows = Array.length m in
  let ncols = if nrows = 0 then 0 else Array.length m.(0) in
  let pivot_cols = Option.value pivot_cols ~default:ncols in
  let a = Array.map Array.copy m in
  let pivots = ref [] in
  let r = ref 0 in
  for c = 0 to pivot_cols - 1 do
    if !r < nrows then begin
      (* Find a non-zero pivot in column c at or below row !r. *)
      let piv = ref (-1) in
      (try
         for i = !r to nrows - 1 do
           if not (Rat.is_zero a.(i).(c)) then begin
             piv := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !piv >= 0 then begin
        let tmp = a.(!r) in
        a.(!r) <- a.(!piv);
        a.(!piv) <- tmp;
        let inv = Rat.inv a.(!r).(c) in
        a.(!r) <- Array.map (fun x -> Rat.mul x inv) a.(!r);
        for i = 0 to nrows - 1 do
          if i <> !r && not (Rat.is_zero a.(i).(c)) then begin
            let f = a.(i).(c) in
            for j = 0 to ncols - 1 do
              a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(!r).(j))
            done
          end
        done;
        pivots := c :: !pivots;
        incr r
      end
    end
  done;
  (a, Array.of_list (List.rev !pivots))

let to_rat t = Array.map (Array.map Rat.of_int) t.data

let rank t =
  let _, pivots = rref_rat (to_rat t) in
  Array.length pivots

(* Rescale a rational vector to a primitive integer vector. *)
let primitive_int (v : Rat.t array) : Vec.t =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let l =
    Array.fold_left
      (fun acc x ->
        let d = Rat.den x in
        acc / gcd acc d * d)
      1 v
  in
  let ints = Array.map (fun x -> Rat.to_int_exn (Rat.mul x (Rat.of_int l))) v in
  let g = Array.fold_left (fun acc x -> gcd acc (abs x)) 0 ints in
  let g = if g = 0 then 1 else g in
  Vec.make (Array.map (fun x -> x / g) ints)

let kernel t =
  if t.ncols = 0 then []
  else begin
    let a, pivots = rref_rat (to_rat t) in
    let is_pivot = Array.make t.ncols false in
    Array.iter (fun c -> is_pivot.(c) <- true) pivots;
    let basis = ref [] in
    for free = t.ncols - 1 downto 0 do
      if not is_pivot.(free) then begin
        let v = Array.make t.ncols Rat.zero in
        v.(free) <- Rat.one;
        Array.iteri
          (fun prow pcol -> v.(pcol) <- Rat.neg a.(prow).(free))
          pivots;
        basis := primitive_int v :: !basis
      end
    done;
    !basis
  end

let row_space t =
  let a, pivots = rref_rat (to_rat t) in
  List.init (Array.length pivots) (fun i -> primitive_int a.(i))

let is_separable_siv t =
  let row_ok r = Array.fold_left (fun n x -> if x <> 0 then n + 1 else n) 0 r <= 1 in
  Array.for_all row_ok t.data
  &&
  let cols_count = Array.make t.ncols 0 in
  Array.iter
    (fun r -> Array.iteri (fun j x -> if x <> 0 then cols_count.(j) <- cols_count.(j) + 1) r)
    t.data;
  Array.for_all (fun n -> n <= 1) cols_count

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           Format.pp_print_int)
        (Array.to_list r))
    t.data;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
