open Ujam_ir

type variant = { vname : string; nest : Nest.t }

type unit_spec = {
  uname : string;
  seed : int;
  repeats : int;
  variants : variant list;
}

type box = {
  mins : int array;
  extents : int array;
  strides : int array;
  size : int;
}

(* ---- layout: union allocation box per array --------------------------- *)

(* Interval of an affine form given per-level index intervals (the same
   outside-in propagation Layout uses; re-derived here because the
   union must span several variants of differing depth). *)
let affine_interval (a : Affine.t) ivals =
  let lo = ref a.Affine.const and hi = ref a.Affine.const in
  Array.iteri
    (fun k c ->
      let l, h = ivals.(k) in
      if c >= 0 then begin
        lo := !lo + (c * l);
        hi := !hi + (c * h)
      end
      else begin
        lo := !lo + (c * h);
        hi := !hi + (c * l)
      end)
    a.Affine.coefs;
  (!lo, !hi)

let index_intervals nest =
  let loops = Nest.loops nest in
  let d = Array.length loops in
  let ivals = Array.make d (0, 0) in
  for k = 0 to d - 1 do
    let l = loops.(k) in
    let lo, _ = affine_interval l.Loop.lo ivals in
    let _, hi = affine_interval l.Loop.hi ivals in
    ivals.(k) <- (lo, max lo hi)
  done;
  ivals

let max_elements = 1 lsl 24

let unit_layout spec =
  let ranges : (string, (int * int) array) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun v ->
      let ivals = index_intervals v.nest in
      List.iter
        (fun (r, _) ->
          let b = Aref.base r in
          let cur =
            match Hashtbl.find_opt ranges b with
            | Some cur -> cur
            | None ->
                let cur = Array.make (Aref.rank r) (max_int, min_int) in
                Hashtbl.add ranges b cur;
                order := b :: !order;
                cur
          in
          if Array.length cur <> Aref.rank r then
            invalid_arg "Emit.unit_layout: rank mismatch across variants";
          Array.iteri
            (fun i s ->
              let lo, hi = affine_interval s ivals in
              let clo, chi = cur.(i) in
              cur.(i) <- (min clo lo, max chi hi))
            r.Aref.subs)
        (Nest.refs v.nest))
    spec.variants;
  List.rev_map
    (fun b ->
      let rng = Hashtbl.find ranges b in
      let dims = Array.length rng in
      let mins = Array.map fst rng in
      let extents = Array.map (fun (lo, hi) -> hi - lo + 1) rng in
      (* checked, so a count past [max_int] cannot wrap under the limit *)
      let size =
        Array.fold_left
          (fun acc e -> if acc > max_int / e then max_int else acc * e)
          1 extents
      in
      if size > max_elements then
        invalid_arg
          (Printf.sprintf "Emit.unit_layout: array %s needs %d elements" b size);
      let strides = Array.make dims 1 in
      for i = 1 to dims - 1 do
        strides.(i) <- strides.(i - 1) * extents.(i - 1)
      done;
      (b, { mins; extents; strides; size }))
    !order

let box_iter box f =
  let dims = Array.length box.mins in
  let idx = Array.make dims 0 in
  let rec go i =
    if i = dims then f (Array.to_list idx)
    else
      for v = box.mins.(i) to box.mins.(i) + box.extents.(i) - 1 do
        idx.(i) <- v;
        go (i + 1)
      done
  in
  go 0

(* ---- code fragments ---------------------------------------------------- *)

let sanitize_word s =
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' then '_' else c) s

let lit s = Printf.sprintf "\"%s\"" (String.escaped s)

(* An affine form over the loop variables i0..i(d-1), as an OCaml int
   expression. *)
let affine_code (a : Affine.t) =
  let terms =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun k c ->
              if c = 0 then None
              else if c = 1 then Some (Printf.sprintf "i%d" k)
              else Some (Printf.sprintf "(%d * i%d)" c k))
            a.Affine.coefs))
  in
  let terms = if a.Affine.const = 0 && terms <> [] then terms
    else terms @ [ Printf.sprintf "(%d)" a.Affine.const ] in
  match terms with
  | [ one ] -> one
  | many -> "(" ^ String.concat " + " many ^ ")"

(* The flat address of a reference is itself affine in the loop
   variables: fold the per-dimension strides and mins into one form. *)
let address_affine (box : box) (r : Aref.t) =
  let d = Aref.depth r in
  let coefs = Array.make d 0 in
  let const = ref 0 in
  Array.iteri
    (fun i (s : Affine.t) ->
      let w = box.strides.(i) in
      Array.iteri (fun k c -> coefs.(k) <- coefs.(k) + (w * c)) s.Affine.coefs;
      const := !const + (w * (s.Affine.const - box.mins.(i))))
    r.Aref.subs;
  { Affine.coefs; const = !const }

(* ---- body emission with store-aware load reuse ------------------------- *)

type ctx = {
  buf : Buffer.t;
  boxes : (string * box) list;
  array_var : string -> string;
  scalar_var : string -> string;
  mutable cache : (Aref.t * string) list;
      (* loads (and stored values) available this iteration *)
  mutable tmp : int;
}

let fresh ctx =
  let n = ctx.tmp in
  ctx.tmp <- n + 1;
  Printf.sprintf "t%d" n

let addr_code ctx r = affine_code (address_affine (List.assoc (Aref.base r) ctx.boxes) r)

let load ctx ind r =
  match List.find_opt (fun (r', _) -> Aref.equal r r') ctx.cache with
  | Some (_, v) -> v
  | None ->
      let v = fresh ctx in
      Buffer.add_string ctx.buf
        (Printf.sprintf "%slet %s = Bigarray.Array1.unsafe_get %s %s in\n" ind v
           (ctx.array_var (Aref.base r))
           (addr_code ctx r));
      ctx.cache <- (r, v) :: ctx.cache;
      v

let rec expr_code ctx ind = function
  | Expr.Const f -> Printf.sprintf "(%h)" f
  | Expr.Scalar s -> "!" ^ ctx.scalar_var s
  | Expr.Read r -> load ctx ind r
  | Expr.Neg e -> Printf.sprintf "(-. %s)" (expr_code ctx ind e)
  | Expr.Bin (op, a, b) ->
      let x = expr_code ctx ind a in
      let y = expr_code ctx ind b in
      (match op with
      | Expr.Add -> Printf.sprintf "(%s +. %s)" x y
      | Expr.Sub -> Printf.sprintf "(%s -. %s)" x y
      | Expr.Mul -> Printf.sprintf "(%s *. %s)" x y
      (* divisions stay finite, exactly as the interpreter evaluates them *)
      | Expr.Div -> Printf.sprintf "(%s /. (%s +. 1.0))" x y)

let stmt_code ctx ind (st : Stmt.t) =
  let rhs = expr_code ctx ind st.Stmt.rhs in
  match st.Stmt.lhs with
  | Stmt.Scalar_var s ->
      Buffer.add_string ctx.buf
        (Printf.sprintf "%s%s := %s;\n" ind (ctx.scalar_var s) rhs)
  | Stmt.Array_elt r ->
      let v = fresh ctx in
      Buffer.add_string ctx.buf (Printf.sprintf "%slet %s = %s in\n" ind v rhs);
      Buffer.add_string ctx.buf
        (Printf.sprintf "%sBigarray.Array1.unsafe_set %s %s %s;\n" ind
           (ctx.array_var (Aref.base r))
           (addr_code ctx r) v);
      (* a store may alias any cached load of the same base at a
         different subscript; keep only the stored value itself *)
      ctx.cache <-
        (r, v)
        :: List.filter (fun (r', _) -> Aref.base r' <> Aref.base r) ctx.cache

(* ---- one variant ------------------------------------------------------- *)

let variant_code buf ~uname ~seed ~repeats ~boxes ~drop_last_stmt v =
  let nest = v.nest in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let arrays = Nest.arrays nest in
  let scalars = Nest.scalars nest in
  let array_var =
    let tbl = List.mapi (fun i b -> (b, Printf.sprintf "a%d" i)) arrays in
    fun b -> List.assoc b tbl
  in
  let scalar_var =
    let tbl = List.mapi (fun i s -> (s, Printf.sprintf "s%d" i)) scalars in
    fun s -> List.assoc s tbl
  in
  let boxes = List.filter (fun (b, _) -> List.mem b arrays) boxes in
  add "\nlet () =\n";
  add "  (* unit %s, variant %s: %s *)\n" uname v.vname (Nest.name nest);
  add "  let seed = %d in\n" seed;
  (* allocation + seeded initialisation *)
  List.iter
    (fun (b, box) ->
      let dims = Array.length box.mins in
      add
        "  let %s = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout \
         %d in\n"
        (array_var b) box.size;
      add "  let () =\n";
      for i = 0 to dims - 1 do
        add "    %sfor i%d = %d to %d do\n" (String.make (2 * i) ' ') i
          box.mins.(i)
          (box.mins.(i) + box.extents.(i) - 1)
      done;
      let flat =
        String.concat " + "
          (List.init dims (fun i ->
               Printf.sprintf "((i%d - (%d)) * %d)" i box.mins.(i)
                 box.strides.(i)))
      in
      let idx =
        "[" ^ String.concat "; " (List.init dims (Printf.sprintf "i%d")) ^ "]"
      in
      add "    %sBigarray.Array1.unsafe_set %s (%s) (init_element seed %s %s);\n"
        (String.make (2 * dims) ' ')
        (array_var b) flat (lit b) idx;
      for i = dims - 1 downto 0 do
        add "    %sdone%s\n" (String.make (2 * i) ' ') (if i = 0 then "" else ";")
      done;
      add "  in\n")
    boxes;
  List.iter
    (fun s -> add "  let %s = ref (init_scalar seed %s) in\n" (scalar_var s) (lit s))
    scalars;
  (* the nest as nested tail-recursive loop functions *)
  add "  let run () =\n";
  let loops = Nest.loops nest in
  let d = Array.length loops in
  let body =
    let b = Nest.body nest in
    if drop_last_stmt && List.length b >= 2 then
      List.filteri (fun i _ -> i < List.length b - 1) b
    else b
  in
  let rec emit_level k ind =
    let l = loops.(k) in
    add "%slet rec l%d i%d =\n" ind k k;
    add "%s  if i%d > %s then () else begin\n" ind k (affine_code l.Loop.hi);
    let ind' = ind ^ "    " in
    if k = d - 1 then begin
      let ctx =
        { buf;
          boxes;
          array_var;
          scalar_var;
          cache = [];
          tmp = 0 }
      in
      List.iter (fun st -> stmt_code ctx ind' st) body;
      add "%sl%d (i%d + %d)\n" ind' k k l.Loop.step
    end
    else begin
      emit_level (k + 1) ind';
      add "%sl%d (i%d + %d)\n" ind' k k l.Loop.step
    end;
    add "%s  end\n" ind;
    add "%sin\n" ind;
    add "%sl%d %s%s\n" ind k (affine_code l.Loop.lo) (if k = 0 then "" else ";")
  in
  emit_level 0 "    ";
  add "  in\n";
  (* one run for semantics, checksums, then the timed repetitions *)
  add "  run ();\n";
  List.iteri
    (fun j (b, box) ->
      let dims = Array.length box.mins in
      add "  let c%d = ref 0.0 in\n" j;
      add "  let () =\n";
      for i = 0 to dims - 1 do
        add "    %sfor i%d = %d to %d do\n" (String.make (2 * i) ' ') i
          box.mins.(i)
          (box.mins.(i) + box.extents.(i) - 1)
      done;
      let flat =
        String.concat " + "
          (List.init dims (fun i ->
               Printf.sprintf "((i%d - (%d)) * %d)" i box.mins.(i)
                 box.strides.(i)))
      in
      let idx =
        "[" ^ String.concat "; " (List.init dims (Printf.sprintf "i%d")) ^ "]"
      in
      add
        "    %sc%d := !c%d +. (Bigarray.Array1.unsafe_get %s (%s) *. \
         cell_weight %s %s);\n"
        (String.make (2 * dims) ' ')
        j j (array_var b) flat (lit b) idx;
      for i = dims - 1 downto 0 do
        add "    %sdone%s\n" (String.make (2 * i) ' ') (if i = 0 then "" else ";")
      done;
      add "  in\n")
    boxes;
  add "  let t0 = Sys.time () in\n";
  add "  for _ = 1 to %d do run () done;\n" (max 1 repeats);
  add "  let t1 = Sys.time () in\n";
  add "  Printf.printf \"RESULT %s %s %%h\" ((t1 -. t0) /. %d.0);\n"
    (sanitize_word uname) (sanitize_word v.vname) (max 1 repeats);
  List.iteri
    (fun j (b, _) -> add "  Printf.printf \" %s=%%h\" !c%d;\n" (sanitize_word b) j)
    boxes;
  add "  print_newline ()\n"

let runtime_src =
  {|(* generated by ujc emit -- do not edit *)
(* Seeded initialisation: a textual mirror of Ujam_sim.Interp's mixer,
   so this program and the reference interpreter see bit-identical
   inputs.  Keep in sync. *)

let mix z =
  let z = z lxor (z lsr 30) in
  let z = z * 0x4be98134a5976fd3 in
  let z = z lxor (z lsr 29) in
  let z = z * 0x3bc0993a5ad19a13 in
  z lxor (z lsr 32)

let fold_string h s =
  let h = ref h in
  String.iter (fun c -> h := mix (!h + Char.code c)) s;
  !h

let init_element seed base idx =
  let h = List.fold_left (fun h i -> mix (h + i)) (fold_string (mix seed) base) idx in
  0.25 +. (float_of_int (h land 0xFFFF) /. 131072.0)

let init_scalar seed name =
  0.25 +. (float_of_int (fold_string (mix (seed + 1)) name land 0xFF) /. 512.0)

let cell_weight base idx =
  let h = List.fold_left (fun h i -> mix (h + i)) (fold_string 0 base) idx in
  1.0 +. (float_of_int (h land 0xFFFF) /. 65536.0)
|}

let program ?(drop_last_stmt = false) units =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf runtime_src;
  List.iter
    (fun u ->
      let boxes = unit_layout u in
      List.iter
        (fun v ->
          variant_code buf ~uname:u.uname ~seed:u.seed ~repeats:u.repeats
            ~boxes ~drop_last_stmt v)
        u.variants)
    units;
  Buffer.contents buf
