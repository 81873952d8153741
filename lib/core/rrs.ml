open Ujam_linalg
open Ujam_ir
open Ujam_reuse

let partition ~localized nest = Streams.of_body ~localized nest

(* Figure 5: the number of register-reuse sets after unrolling, without
   materialising the body.  Every definition copy always generates its
   own stream (stores are never removed, Sec. 4.3).  A use-led (or
   invariant) leader's copy at offset u' is absorbed when a copy of
   another leader at offset u' - v generated the value at an earlier
   time (the Figure 6 condition, checked per lattice variant v of the
   merge key); for invariant streams any textually earlier coinciding
   copy absorbs.  Cells hold totals (read with [Unroll_space.Table.get]). *)
let incremental_rrs_table space ~localized nest =
  let unroll_levels = Unroll_space.unroll_levels space in
  let dim = Unroll_space.depth space in
  let max_bound = Array.fold_left max 0 (Unroll_space.bounds space) in
  let all_streams = Streams.of_body ~localized nest in
  let table = Unroll_space.Table.create space 0 in
  let in_box u v = Vec.for_all (fun x -> x >= 0) v && Vec.leq_pointwise v u in
  List.iter
    (fun (g : Ugs.t) ->
      let h = g.Ugs.h in
      let solver = Solvers.temporal ~h ~localized ~unroll_levels in
      let local = Subspace.prepare h localized in
      let kernel_gens = Solvers.kernel_moves ~h ~localized ~unroll_levels in
      (* Signed lattice shifts of a base offset difference. *)
      let signed_variants base =
        let rec expand acc = function
          | [] -> acc
          | gen :: rest ->
              let shifted =
                List.concat_map
                  (fun v ->
                    List.init
                      ((4 * (max_bound + 1)) + 1)
                      (fun a -> Vec.add v (Vec.scale (a - (2 * (max_bound + 1))) gen)))
                  acc
              in
              expand shifted rest
        in
        expand [ base ] kernel_gens
        |> List.filter (fun v ->
               (not (Vec.is_zero v)) && Unroll_space.mem space (Vec.map abs v))
      in
      let leaders =
        all_streams
        |> List.filter (fun (s : Streams.stream) ->
               String.equal s.Streams.base g.Ugs.base && Mat.equal s.Streams.h g.Ugs.h)
        |> List.map (fun (s : Streams.stream) ->
               let m = List.hd s.Streams.members in
               (m, s.Streams.invariant))
      in
      (* Valid absorber offsets per leader: copy u' of j is absorbed when
         u' - v lies in the unroll box for some v here. *)
      let absorbers ((j : Streams.member), invariant_j) =
        if j.Streams.is_def && not invariant_j then []
        else begin
          let c_j = Aref.c_vector j.Streams.site.Site.ref_ in
          List.concat_map
            (fun ((i : Streams.member), _) ->
              let c_i = Aref.c_vector i.Streams.site.Site.ref_ in
              let self = i.Streams.site.Site.id = j.Streams.site.Site.id in
              let base =
                if self then Some (Vec.zero dim)
                else
                  Option.map
                    (fun (k : Solvers.key) -> k.Solvers.m)
                    (solver ~c_from:c_j ~c_to:c_i)
              in
              match base with
              | None -> []
              | Some base ->
                  signed_variants base
                  |> List.filter (fun v ->
                         (* Align copy of i at offset u' - v with copy of
                            j at u': the witness's innermost component is
                            i's generation time relative to j's use. *)
                         let rhs = Vec.sub (Vec.sub c_i c_j) (Mat.apply h v) in
                         match Subspace.solve local rhs with
                         | None -> false
                         | Some x ->
                             if invariant_j then
                               (* any coinciding, textually earlier copy *)
                               Vec.compare v (Vec.zero dim) > 0
                             else begin
                               let gen_time = Vec.get x (dim - 1) in
                               gen_time > 0
                               || (gen_time = 0
                                  && (Vec.compare v (Vec.zero dim) > 0
                                     || (Vec.is_zero v
                                        && i.Streams.site.Site.stmt
                                           < j.Streams.site.Site.stmt)))
                             end))
            leaders
        end
      in
      let leader_absorbers = List.map (fun l -> (l, absorbers l)) leaders in
      Unroll_space.iter space (fun u ->
          let count = ref 0 in
          let copies = Unroll_space.copies u in
          List.iter
            (fun (((j : Streams.member), invariant_j), abs_list) ->
              if j.Streams.is_def && not invariant_j then count := !count + copies
              else begin
                (* enumerate the copy box, skipping absorbed copies *)
                let o = Array.make dim 0 in
                let rec go k =
                  if k = dim then begin
                    let u' = Vec.make o in
                    let absorbed =
                      List.exists (fun v -> in_box u (Vec.sub u' v)) abs_list
                    in
                    if not absorbed then incr count
                  end
                  else
                    for x = 0 to Vec.get u k do
                      o.(k) <- x;
                      go (k + 1)
                    done
                in
                go 0
              end)
            leader_absorbers;
          Unroll_space.Table.add table u !count))
    (Ugs.of_nest nest);
  table
