type t = { name : string; loops : Loop.t array; body : Stmt.t list }

let depth t = Array.length t.loops

let make ~name ~loops ~body =
  let loops = Array.of_list loops in
  let d = Array.length loops in
  if d = 0 then invalid_arg "Nest.make: empty nest";
  Array.iteri
    (fun k (l : Loop.t) ->
      if l.Loop.level <> k then invalid_arg "Nest.make: loop levels out of order";
      if Affine.depth l.Loop.lo <> d || Affine.depth l.Loop.hi <> d then
        invalid_arg "Nest.make: bound depth mismatch")
    loops;
  List.iter
    (fun s ->
      List.iter
        (fun r -> if Aref.depth r <> d then invalid_arg "Nest.make: subscript depth mismatch")
        (Stmt.reads s @ Stmt.writes s))
    body;
  { name; loops; body }

let name t = t.name
let body t = t.body
let loops t = t.loops
let var_name t k = t.loops.(k).Loop.var

let flops_per_iteration t = List.fold_left (fun acc s -> acc + Stmt.flops s) 0 t.body

let refs t =
  List.concat_map
    (fun s ->
      List.map (fun r -> (r, `Read)) (Stmt.reads s)
      @ List.map (fun r -> (r, `Write)) (Stmt.writes s))
    t.body

let arrays t =
  List.fold_left
    (fun acc (r, _) ->
      let b = Aref.base r in
      if List.mem b acc then acc else acc @ [ b ])
    [] (refs t)

let assigned_scalars t =
  List.filter_map
    (fun (s : Stmt.t) ->
      match s.Stmt.lhs with
      | Stmt.Scalar_var v -> Some v
      | Stmt.Array_elt _ -> None)
    t.body
  |> List.sort_uniq String.compare

let scalars t =
  assigned_scalars t
  @ List.concat_map (fun (s : Stmt.t) -> Expr.scalars s.Stmt.rhs) t.body
  |> List.sort_uniq String.compare

let trip_counts t =
  let trips = Array.map Loop.trip_const t.loops in
  if Array.for_all Option.is_some trips then Some (Array.map Option.get trips)
  else None

let iterations t =
  Option.map (Array.fold_left (fun acc n -> acc * n) 1) (trip_counts t)

let with_body t body = { t with body }
let with_loops t loops = { t with loops }

let iter_index_vectors t f =
  let d = depth t in
  let iv = Array.make d 0 in
  let rec go k =
    if k = d then f iv
    else begin
      let l = t.loops.(k) in
      let lo = Affine.eval l.Loop.lo iv and hi = Affine.eval l.Loop.hi iv in
      let i = ref lo in
      while !i <= hi do
        iv.(k) <- !i;
        go (k + 1);
        i := !i + l.Loop.step
      done
    end
  in
  go 0

let pp ppf t =
  let vn = var_name t in
  let d = depth t in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun k (l : Loop.t) ->
      if k > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%sDO %s = %a, %a%s" (String.make (2 * k) ' ') l.Loop.var
        (Affine.pp ~var_name:vn) l.Loop.lo (Affine.pp ~var_name:vn) l.Loop.hi
        (if l.Loop.step = 1 then "" else Printf.sprintf ", %d" l.Loop.step))
    t.loops;
  List.iter
    (fun s ->
      Format.fprintf ppf "@,%s%a" (String.make (2 * d) ' ') (Stmt.pp ~var_name:vn) s)
    t.body;
  for k = d - 1 downto 0 do
    Format.fprintf ppf "@,%sENDDO" (String.make (2 * k) ' ')
  done;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
