open Ujam_linalg
open Ujam_ir

type partition = { classes : Site.t list list }

let merges_spatial ~localized (u : Ugs.t) ~c1 ~c2 =
  let hs = Subspace.prepare (Selfreuse.spatial_matrix u.Ugs.h) localized in
  Subspace.solvable_diff hs ~truncate:true (Vec.to_array c1) (Vec.to_array c2)

(* The merge predicates are equivalences on a UGS (solutions negate and
   add within the vector space), so a linear scan against class leaders
   suffices.  Each member's constant vector is keyed once; there are at
   most as many classes as members, so the leaders and the (reversed)
   members of each class sit in arrays of that size, in creation order,
   and each test reads [c - leader] in place. *)
let partition_sites solver ~truncate (u : Ugs.t) =
  let key (s : Site.t) = (Array.map (fun (a : Affine.t) -> a.const) s.Site.ref_.Aref.subs, s) in
  let keyed = Array.of_list (List.map key u.Ugs.members) in
  (* [Vec.compare]'s order *)
  Array.stable_sort (fun (a, _) (b, _) -> Stdlib.compare a b) keyed;
  let n = Array.length keyed in
  let leaders = Array.make n [||] and members = Array.make n [] and classes = ref 0 in
  Array.iter
    (fun (c, s) ->
      let rec place i =
        if i = !classes then begin
          leaders.(i) <- c;
          members.(i) <- [ s ];
          incr classes
        end
        else if Subspace.solvable_diff solver ~truncate c leaders.(i) then
          members.(i) <- s :: members.(i)
        else place (i + 1)
      in
      place 0)
    keyed;
  { classes = List.init !classes (fun i -> List.rev members.(i)) }

let temporal_partition solver u = partition_sites solver ~truncate:false u

let group_temporal ~localized u = temporal_partition (Subspace.prepare u.Ugs.h localized) u

let group_spatial ~localized u =
  partition_sites (Subspace.prepare (Selfreuse.spatial_matrix u.Ugs.h) localized) ~truncate:true u

let count p = List.length p.classes
let leaders p = List.map List.hd p.classes
