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

let bounds nest =
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

(* A pair's result, oriented: a -> b, b -> a (distance negated), or
   loop-independent. *)
type oriented = Indep | Forward of Depvec.t | Backward of Depvec.t | Same of Depvec.t

let orient = function
  | Test_pair.Independent -> Indep
  | Test_pair.Dependent dvec -> (
      match Depvec.lex_sign dvec with
      | `Pos | `Ambiguous -> Forward dvec
      | `Neg -> Backward (Depvec.negate dvec)
      | `Zero -> Same dvec)

module Diff = Hashtbl.Make (struct
  type t = int array (* every key of a group has the rank of its H *)

  let equal = Array.for_all2 Int.equal
  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 0 a
end)

(* The sites sharing one (array, H): the prepared [H], the oriented
   results by c_a - c_b, and the buffer each lookup fills with the
   difference (a key is copied only when it is stored). *)
type group = { prepared : Test_pair.prepared; memo : oriented Diff.t; scratch : int array }

let build ?(include_input = true) nest =
  let sites = Array.of_list (Site.of_nest nest) in
  let bounds = bounds nest in
  (* Sites sharing (array, H) form one group: a pair inside a group is
     uniform, and its result depends only on c_a - c_b, so it is tested
     once per (group, difference). *)
  let groups = Hashtbl.create 16 in
  let group =
    Array.map
      (fun (s : Site.t) ->
        let h = Aref.h_matrix s.Site.ref_ in
        let key = (Aref.base s.Site.ref_, h) in
        match Hashtbl.find_opt groups key with
        | Some g -> g
        | None ->
            let scratch = Array.make (Mat.rows h) 0 in
            let g = { prepared = Test_pair.prepare h; memo = Diff.create 16; scratch } in
            Hashtbl.add groups key g;
            g)
      sites
  in
  let consts = Array.map (fun (s : Site.t) -> Vec.to_array (Aref.c_vector s.Site.ref_)) sites in
  let test a b =
    let g = group.(a) in
    if g == group.(b) then begin
      let ca = consts.(a) and cb = consts.(b) in
      for i = 0 to Array.length g.scratch - 1 do
        g.scratch.(i) <- ca.(i) - cb.(i)
      done;
      match Diff.find g.memo g.scratch with
      | r -> r
      | exception Not_found ->
          let rhs = Array.copy g.scratch in
          let r = orient (Test_pair.uniform ~bounds g.prepared rhs) in
          Diff.add g.memo rhs r;
          r
    end
    else orient (Test_pair.test ~bounds sites.(a).Site.ref_ sites.(b).Site.ref_)
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
        | Indep -> ()
        | Forward dvec -> add sa sb dvec
        | Backward dvec -> add sb sa dvec
        | Same dvec ->
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
            end
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
