open Ujam_linalg
open Ujam_ir

type partition = { classes : Site.t list list }

let merges_temporal ~localized (u : Ugs.t) ~c1 ~c2 =
  Subspace.solvable_in u.Ugs.h (Vec.sub c1 c2) localized

let truncate_first c = Vec.set c 0 0

let merges_spatial ~localized (u : Ugs.t) ~c1 ~c2 =
  let hs = Selfreuse.spatial_matrix u.Ugs.h in
  Subspace.solvable_in hs (truncate_first (Vec.sub c1 c2)) localized

(* The merge predicates are equivalences on a UGS (solutions negate and
   add within the vector space), so a linear scan against class leaders
   suffices. *)
let partition_sites ~merges (u : Ugs.t) =
  let sorted =
    List.stable_sort
      (fun (a : Site.t) (b : Site.t) ->
        Vec.compare (Aref.c_vector a.Site.ref_) (Aref.c_vector b.Site.ref_))
      u.Ugs.members
  in
  let classes : Site.t list ref list ref = ref [] in
  List.iter
    (fun (s : Site.t) ->
      let c = Aref.c_vector s.Site.ref_ in
      let rec place = function
        | [] -> classes := !classes @ [ ref [ s ] ]
        | cell :: rest ->
            let leader = List.hd !cell in
            if merges ~c1:c ~c2:(Aref.c_vector leader.Site.ref_) then
              cell := !cell @ [ s ]
            else place rest
      in
      place !classes)
    sorted;
  { classes = List.map (fun cell -> !cell) !classes }

let group_temporal ~localized u =
  partition_sites ~merges:(fun ~c1 ~c2 -> merges_temporal ~localized u ~c1 ~c2) u

let group_spatial ~localized u =
  partition_sites ~merges:(fun ~c1 ~c2 -> merges_spatial ~localized u ~c1 ~c2) u

let count p = List.length p.classes
let leaders p = List.map List.hd p.classes
