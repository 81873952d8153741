open Ujam_linalg
open Ujam_ir

type partition = { classes : Site.t list list }

let truncate_first c = Vec.set c 0 0

let merges_spatial ~localized (u : Ugs.t) ~c1 ~c2 =
  let hs = Selfreuse.spatial_matrix u.Ugs.h in
  Subspace.solvable_in hs (truncate_first (Vec.sub c1 c2)) localized

type cell = { leader : Vec.t; mutable members : Site.t list (* reversed *) }

(* The merge predicates are equivalences on a UGS (solutions negate and
   add within the vector space), so a linear scan against class leaders
   suffices.  Classes keep their creation order and members their
   placement order, without appending to a list. *)
let partition_sites ~merges (u : Ugs.t) =
  let sorted =
    List.stable_sort
      (fun (a : Site.t) (b : Site.t) ->
        Vec.compare (Aref.c_vector a.Site.ref_) (Aref.c_vector b.Site.ref_))
      u.Ugs.members
  in
  let cells = Queue.create () in
  List.iter
    (fun (s : Site.t) ->
      let c = Aref.c_vector s.Site.ref_ in
      match Seq.find (fun cell -> merges ~c1:c ~c2:cell.leader) (Queue.to_seq cells) with
      | Some cell -> cell.members <- s :: cell.members
      | None -> Queue.add { leader = c; members = [ s ] } cells)
    sorted;
  { classes = List.of_seq (Seq.map (fun cell -> List.rev cell.members) (Queue.to_seq cells)) }

let temporal_partition solver u =
  partition_sites ~merges:(fun ~c1 ~c2 -> Option.is_some (Subspace.solve solver (Vec.sub c1 c2))) u

let group_temporal ~localized u = temporal_partition (Subspace.prepare u.Ugs.h localized) u

let group_spatial ~localized u =
  let solver = Subspace.prepare (Selfreuse.spatial_matrix u.Ugs.h) localized in
  partition_sites
    ~merges:(fun ~c1 ~c2 ->
      Option.is_some (Subspace.solve solver (truncate_first (Vec.sub c1 c2))))
    u

let count p = List.length p.classes
let leaders p = List.map List.hd p.classes
