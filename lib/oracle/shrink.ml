open Ujam_ir
module Json = Ujam_obs.Json

(* ---- candidate rewrites ---------------------------------------------- *)

(* All one-step prunings of an expression, biggest cut first. *)
let rec reductions e =
  match e with
  | Expr.Bin (op, a, b) ->
      (a :: b :: List.map (fun a' -> Expr.Bin (op, a', b)) (reductions a))
      @ List.map (fun b' -> Expr.Bin (op, a, b')) (reductions b)
  | Expr.Neg a -> a :: List.map (fun a' -> Expr.Neg a') (reductions a)
  | _ -> []

(* Rewrite the [j]-th array reference of the body (rhs reads in traversal
   order, then the lhs write, per statement). *)
let map_ref_at nest j f =
  let i = ref (-1) in
  let g r =
    incr i;
    if !i = j then f r else r
  in
  let body =
    List.map
      (fun (st : Stmt.t) ->
        let rhs = Expr.map_refs g st.Stmt.rhs in
        let lhs =
          match st.Stmt.lhs with
          | Stmt.Array_elt r -> Stmt.Array_elt (g r)
          | lhs -> lhs
        in
        Stmt.assign lhs rhs)
      (Nest.body nest)
  in
  Nest.with_body nest body

let nrefs nest = List.length (Nest.refs nest)

let ref_at nest j =
  match List.nth_opt (Nest.refs nest) j with
  | Some (r, _) -> r
  | None -> invalid_arg "Shrink.ref_at"

(* Delete loop level [k]: substitute its (constant) lower bound for the
   index everywhere and renumber the remaining levels.  Requires no other
   loop bound to depend on level [k]. *)
let drop_level nest k =
  let loops = Nest.loops nest in
  let d = Array.length loops in
  if d < 2 then None
  else
    let l = loops.(k) in
    if not (Affine.is_constant l.Loop.lo) then None
    else if
      Array.exists
        (fun (l' : Loop.t) ->
          l'.Loop.level <> k
          && (Affine.uses_level l'.Loop.lo k || Affine.uses_level l'.Loop.hi k))
        loops
    then None
    else
      let v = l.Loop.lo.Affine.const in
      let narrow (a : Affine.t) =
        let const = a.Affine.const + (a.Affine.coefs.(k) * v) in
        let coefs =
          Array.init (d - 1) (fun i ->
              a.Affine.coefs.(if i < k then i else i + 1))
        in
        Affine.make ~coefs ~const
      in
      let loops' =
        Array.to_list loops
        |> List.filter (fun (l' : Loop.t) -> l'.Loop.level <> k)
        |> List.map (fun (l' : Loop.t) ->
               Loop.make ~var:l'.Loop.var
                 ~level:(if l'.Loop.level < k then l'.Loop.level
                         else l'.Loop.level - 1)
                 ~lo:(narrow l'.Loop.lo) ~hi:(narrow l'.Loop.hi)
                 ~step:l'.Loop.step)
      in
      let body =
        List.map
          (Stmt.map_refs (fun r ->
               Aref.make (Aref.base r)
                 (List.map narrow (Array.to_list r.Aref.subs))))
          (Nest.body nest)
      in
      Some (Nest.make ~name:(Nest.name nest) ~loops:loops' ~body)

let with_trip nest k trip' =
  let loops = Nest.loops nest in
  let l = loops.(k) in
  if not (Affine.is_constant l.Loop.lo && Affine.is_constant l.Loop.hi) then
    None
  else
    let lo = l.Loop.lo.Affine.const in
    let trip = l.Loop.hi.Affine.const - lo + 1 in
    if trip' >= trip || trip' < 1 then None
    else
      let d = Array.length loops in
      let hi = Affine.const ~depth:d (lo + trip' - 1) in
      let loops =
        Array.mapi (fun i l' -> if i = k then { l with Loop.hi } else l') loops
      in
      Some (Nest.with_loops nest loops)

(* The candidate queue for one nest, most aggressive rewrites first.
   Each candidate is a thunk; IR validation failures discard it. *)
let candidates nest =
  let d = Nest.depth nest in
  let body = Nest.body nest in
  let n_stmts = List.length body in
  let guard f = match f () with exception _ -> None | c -> c in
  let drop_stmts =
    if n_stmts < 2 then []
    else
      List.init n_stmts (fun i () ->
          guard (fun () ->
              Some
                (Nest.with_body nest
                   (List.filteri (fun j _ -> j <> i) body))))
  in
  let drop_levels =
    List.init d (fun k () -> guard (fun () -> drop_level nest k))
  in
  let prune_rhs =
    List.concat
      (List.mapi
         (fun i (st : Stmt.t) ->
           List.map
             (fun rhs' () ->
               guard (fun () ->
                   Some
                     (Nest.with_body nest
                        (List.mapi
                           (fun j st' ->
                             if j = i then Stmt.assign st.Stmt.lhs rhs'
                             else st')
                           body))))
             (reductions st.Stmt.rhs))
         body)
  in
  let trips_to n =
    List.init d (fun k () -> guard (fun () -> with_trip nest k n))
  in
  let halve_trips =
    List.init d (fun k () ->
        guard (fun () ->
            let l = (Nest.loops nest).(k) in
            match (Affine.is_constant l.Loop.lo, Affine.is_constant l.Loop.hi)
            with
            | true, true ->
                let trip =
                  l.Loop.hi.Affine.const - l.Loop.lo.Affine.const + 1
                in
                with_trip nest k (trip / 2)
            | _ -> None))
  in
  let per_subscript f =
    List.concat
      (List.init (nrefs nest) (fun j ->
           let r = ref_at nest j in
           List.concat
             (List.init (Aref.rank r) (fun dim ->
                  f j r r.Aref.subs.(dim) dim))))
  in
  let sub_with r dim sub' =
    Aref.make (Aref.base r)
      (List.mapi
         (fun i s -> if i = dim then sub' else s)
         (Array.to_list r.Aref.subs))
  in
  let zero_consts =
    per_subscript (fun j _ (sub : Affine.t) dim ->
        if sub.Affine.const = 0 then []
        else
          [ (fun () ->
              guard (fun () ->
                  Some
                    (map_ref_at nest j (fun r ->
                         sub_with r dim
                           (Affine.make ~coefs:sub.Affine.coefs ~const:0)))))
          ])
  in
  let shrink_coefs =
    per_subscript (fun j _ (sub : Affine.t) dim ->
        List.concat
          (List.init (Array.length sub.Affine.coefs) (fun k ->
               let c = sub.Affine.coefs.(k) in
               let set v () =
                 guard (fun () ->
                     let coefs = Array.copy sub.Affine.coefs in
                     coefs.(k) <- v;
                     Some
                       (map_ref_at nest j (fun r ->
                            sub_with r dim
                              (Affine.make ~coefs ~const:sub.Affine.const))))
               in
               if c = 0 then []
               else if abs c > 1 then [ set 0; set (c / abs c) ]
               else [ set 0 ])))
  in
  let halve_consts =
    per_subscript (fun j _ (sub : Affine.t) dim ->
        if abs sub.Affine.const < 2 then []
        else
          [ (fun () ->
              guard (fun () ->
                  Some
                    (map_ref_at nest j (fun r ->
                         sub_with r dim
                           (Affine.make ~coefs:sub.Affine.coefs
                              ~const:(sub.Affine.const / 2))))))
          ])
  in
  List.concat
    [ drop_stmts; drop_levels; prune_rhs; trips_to 4; zero_consts;
      shrink_coefs; halve_trips; halve_consts ]

(* ---- the greedy descent ---------------------------------------------- *)

let m_steps = Ujam_obs.Obs.counter "oracle.shrink.steps"

let run ?(max_steps = 300) ~still_fails nest =
  let fails n =
    Ujam_obs.Obs.Counter.incr m_steps;
    match still_fails n with ok -> ok | exception _ -> false
  in
  let steps = ref 0 in
  let rec go nest =
    let next =
      List.find_map
        (fun cand ->
          if !steps >= max_steps then None
          else
            match cand () with
            | None -> None
            | Some n' ->
                incr steps;
                if fails n' then Some n' else None)
        (candidates nest)
    in
    match next with Some n' -> go n' | None -> nest
  in
  go nest

(* ---- reproducer output ----------------------------------------------- *)

let affine_snippet (a : Affine.t) =
  let terms =
    List.concat
      (List.mapi
         (fun k c ->
           if c = 0 then []
           else if c = 1 then [ Printf.sprintf "var d %d" k ]
           else [ Printf.sprintf "(%d *$ var d %d)" c k ])
         (Array.to_list a.Affine.coefs))
  in
  match (terms, a.Affine.const) with
  | [], c -> Printf.sprintf "cst d %d" c
  | ts, 0 -> String.concat " ++$ " ts
  | ts, c when c > 0 -> Printf.sprintf "%s +$ %d" (String.concat " ++$ " ts) c
  | ts, c -> Printf.sprintf "%s -$ %d" (String.concat " ++$ " ts) (-c)

let subs_snippet subs =
  String.concat "; " (List.map affine_snippet (Array.to_list subs))

let rec expr_snippet e =
  match e with
  | Expr.Const v -> Printf.sprintf "f (%s)" (string_of_float v)
  | Expr.Scalar name -> Printf.sprintf "s %S" name
  | Expr.Read r ->
      Printf.sprintf "rd %S [ %s ]" (Aref.base r) (subs_snippet r.Aref.subs)
  | Expr.Neg a -> Printf.sprintf "Ujam_ir.Expr.Neg (%s)" (expr_snippet a)
  | Expr.Bin (op, a, b) ->
      let sym =
        match op with
        | Expr.Add -> "+:"
        | Expr.Sub -> "-:"
        | Expr.Mul -> "*:"
        | Expr.Div -> "/:"
      in
      Printf.sprintf "(%s %s %s)" (expr_snippet a) sym (expr_snippet b)

let stmt_snippet (st : Stmt.t) =
  match st.Stmt.lhs with
  | Stmt.Array_elt r ->
      Printf.sprintf "aref %S [ %s ] <<- %s" (Aref.base r)
        (subs_snippet r.Aref.subs)
        (expr_snippet st.Stmt.rhs)
  | Stmt.Scalar_var name ->
      Printf.sprintf "%S <<~ %s" name (expr_snippet st.Stmt.rhs)

let loop_snippet (l : Loop.t) =
  if Affine.is_constant l.Loop.lo && Affine.is_constant l.Loop.hi then
    Printf.sprintf "loop d %S ~level:%d ~lo:%d ~hi:%d%s ()" l.Loop.var
      l.Loop.level l.Loop.lo.Affine.const l.Loop.hi.Affine.const
      (if l.Loop.step = 1 then "" else Printf.sprintf " ~step:%d" l.Loop.step)
  else
    Printf.sprintf "loop_aff %S ~level:%d ~lo:(%s) ~hi:(%s)%s ()" l.Loop.var
      l.Loop.level
      (affine_snippet l.Loop.lo)
      (affine_snippet l.Loop.hi)
      (if l.Loop.step = 1 then "" else Printf.sprintf " ~step:%d" l.Loop.step)

let to_snippet nest =
  let b = Buffer.create 256 in
  Buffer.add_string b "let open Ujam_ir.Build in\n";
  Buffer.add_string b (Printf.sprintf "let d = %d in\n" (Nest.depth nest));
  Buffer.add_string b (Printf.sprintf "nest %S\n" (Nest.name nest));
  Buffer.add_string b
    (Printf.sprintf "  [ %s ]\n"
       (String.concat ";\n    "
          (List.map loop_snippet (Array.to_list (Nest.loops nest)))));
  Buffer.add_string b
    (Printf.sprintf "  [ %s ]\n"
       (String.concat ";\n    " (List.map stmt_snippet (Nest.body nest))));
  Buffer.contents b

let affine_json (a : Affine.t) =
  Json.Obj
    [ ("coefs", Json.List (List.map (fun c -> Json.Int c)
                             (Array.to_list a.Affine.coefs)));
      ("const", Json.Int a.Affine.const) ]

let to_json nest =
  let var_name = Nest.var_name nest in
  Json.Obj
    [ ("name", Json.Str (Nest.name nest));
      ("depth", Json.Int (Nest.depth nest));
      ( "loops",
        Json.List
          (Array.to_list (Nest.loops nest)
          |> List.map (fun (l : Loop.t) ->
                 Json.Obj
                   [ ("var", Json.Str l.Loop.var);
                     ("level", Json.Int l.Loop.level);
                     ("lo", affine_json l.Loop.lo);
                     ("hi", affine_json l.Loop.hi);
                     ("step", Json.Int l.Loop.step) ])) );
      ( "body",
        Json.List
          (List.map
             (fun st ->
               Json.Str (Format.asprintf "%a" (Stmt.pp ~var_name) st))
             (Nest.body nest)) );
      ("snippet", Json.Str (to_snippet nest)) ]
