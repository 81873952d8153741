open Ujam_linalg
open Ujam_ir

type kind = Flow | Anti | Output | Input

type edge = { src : Site.t; dst : Site.t; kind : kind; dvec : Depvec.t }

type t = { nest : Nest.t; edges : edge list }

let kind_of_sites (src : Site.t) (dst : Site.t) =
  match (src.Site.kind, dst.Site.kind) with
  | Site.Write, Site.Read -> Flow
  | Site.Read, Site.Write -> Anti
  | Site.Write, Site.Write -> Output
  | Site.Read, Site.Read -> Input

let nest_bounds nest =
  let loops = Nest.loops nest in
  let all_const =
    Array.for_all
      (fun (l : Loop.t) -> Affine.is_constant l.Loop.lo && Affine.is_constant l.Loop.hi)
      loops
  in
  if all_const then
    Some
      (Array.map
         (fun (l : Loop.t) -> (l.Loop.lo.Affine.const, l.Loop.hi.Affine.const))
         loops)
  else None

let build ?(include_input = true) nest =
  let sites = Array.of_list (Site.of_nest nest) in
  let bounds = nest_bounds nest in
  (* Sites sharing (array, H) form one group: a pair inside a group is
     uniform, and its result depends only on c_a - c_b, so it is tested
     once per (group, difference). *)
  let groups = Hashtbl.create 16 in
  let group =
    Array.map
      (fun (s : Site.t) ->
        let key = (Aref.base s.Site.ref_, Aref.h_matrix s.Site.ref_) in
        match Hashtbl.find_opt groups key with
        | Some g -> g
        | None ->
            let g = (Hashtbl.length groups, Test_pair.prepare (snd key)) in
            Hashtbl.add groups key g;
            g)
      sites
  in
  let consts = Array.map (fun (s : Site.t) -> Vec.to_array (Aref.c_vector s.Site.ref_)) sites in
  let memo = Hashtbl.create 64 in
  let test a b =
    let ga, prepared = group.(a) in
    if ga = fst group.(b) then begin
      let rhs = Array.map2 ( - ) consts.(a) consts.(b) in
      match Hashtbl.find_opt memo (ga, rhs) with
      | Some r -> r
      | None ->
          let r = Test_pair.uniform ~bounds prepared rhs in
          Hashtbl.add memo (ga, rhs) r;
          r
    end
    else Test_pair.test ~bounds sites.(a).Site.ref_ sites.(b).Site.ref_
  in
  let edges = ref [] in
  let add src dst dvec = edges := { src; dst; kind = kind_of_sites src dst; dvec } :: !edges in
  let n = Array.length sites in
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let sa = sites.(a) and sb = sites.(b) in
      let both_reads = (not (Site.is_write sa)) && not (Site.is_write sb) in
      if (include_input || not both_reads)
         && String.equal (Aref.base sa.Site.ref_) (Aref.base sb.Site.ref_)
      then
        match test a b with
        | Test_pair.Independent -> ()
        | Test_pair.Dependent dvec -> (
            match Depvec.lex_sign dvec with
            | `Pos -> add sa sb dvec
            | `Neg -> add sb sa (Depvec.negate dvec)
            | `Ambiguous -> add sa sb dvec
            | `Zero ->
                (* Loop-independent: only between distinct sites, from the
                   textually earlier one.  Within a statement the reads
                   execute before the write. *)
                if a <> b then begin
                  let earlier, later =
                    if sa.Site.stmt < sb.Site.stmt then (sa, sb)
                    else if sb.Site.stmt < sa.Site.stmt then (sb, sa)
                    else if Site.is_write sb then (sa, sb)
                    else if Site.is_write sa then (sb, sa)
                    else (sa, sb)
                  in
                  add earlier later dvec
                end)
    done
  done;
  { nest; edges = List.rev !edges }

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with Flow -> "flow" | Anti -> "anti" | Output -> "output" | Input -> "input")

let pp ppf t =
  let vn = Nest.var_name t.nest in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%a: %a -> %a %a" pp_kind e.kind (Site.pp ~var_name:vn)
        e.src (Site.pp ~var_name:vn) e.dst Depvec.pp e.dvec)
    t.edges;
  Format.fprintf ppf "@]"

let to_dot t =
  let vn = Nest.var_name t.nest in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dependences {\n  rankdir=LR;\n";
  List.iter
    (fun (s : Site.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" s.Site.id
           (Format.asprintf "%a" (Site.pp ~var_name:vn) s)
           (if Site.is_write s then "box" else "ellipse")))
    (Site.of_nest t.nest);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s %s\"%s];\n" e.src.Site.id
           e.dst.Site.id
           (Format.asprintf "%a" pp_kind e.kind)
           (Format.asprintf "%a" Depvec.pp e.dvec)
           (match e.kind with Input -> ", style=dashed" | Flow | Anti | Output -> "")))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
