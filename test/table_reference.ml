(* The unroll tables as they were built before one temporal partition
   per UGS filled them by region writes: the stream summary as a
   closure that walks every deposit once per unroll vector, and the
   g_T/g_S totals from a hashed partition per point.  The property in
   [Test_tables] checks the shipped builders against these cell for
   cell. *)

open Ujam_linalg
open Ujam_ir
open Ujam_reuse
open Ujam_core

(* Stream summaries of the unrolled loop, from the original UGS alone.
   Each GTS class of the original body gets a merge key (m over the
   unroll levels, delta on the innermost loop) relative to its component
   root; after unrolling by [u] the classes of the unrolled body are the
   points of the union of the key-shifted boxes [0..u], and each
   covering class deposits its members there, time-shifted by its key
   delta.

   Every ingredient of the per-[u] stream decomposition is independent
   of [u] once computed over the full space box: the component
   decomposition, the class partition of the deposit points (lattice
   classes restrict to sub-boxes;
   [Table_wrappers.temporal_point_class] names each point's class),
   each deposit's time offset, and the total time
   order — the unrolled body orders by (delta desc, body copy, stmt,
   def, site id), and the textual rank of the copy at offset [o] within
   any box [0..u] orders exactly as lex([o]).  So we partition and sort
   once, and each query walks the sorted deposit arrays, skipping
   entries whose offset lies outside [0..u], splitting at definitions
   and accumulating spans — no allocation, no hashing, no sorting per
   [u]. *)
type deposit = { off : int array; d_delta : int; d_stmt : int; d_def : bool; d_id : int }

let unrolled_summary_fn space ~localized (ugs : Ugs.t) =
  let h = ugs.Ugs.h in
  let solver =
    Solvers.temporal ~h ~localized ~unroll_levels:(Unroll_space.unroll_levels space)
  in
  let local = Subspace.prepare h localized in
  let classes = (Groups.temporal_partition local ugs).Groups.classes in
  (* Pre-resolve each member's time offset relative to its class leader. *)
  let resolved_classes =
    List.map
      (fun cls ->
        let c0 = Aref.c_vector (List.hd cls).Site.ref_ in
        ( c0,
          List.map
            (fun (s : Site.t) ->
              let d_rel =
                match Subspace.solve local (Vec.sub (Aref.c_vector s.Site.ref_) c0) with
                | Some x -> Vec.get x (Vec.dim x - 1)
                | None -> 0
              in
              (s, d_rel, Site.is_write s))
            cls ))
      classes
  in
  let comps =
    Solvers.components solver ~dim:(Unroll_space.depth space) resolved_classes
  in
  let invariant = Selfreuse.has_self_temporal ~localized h in
  let point_class = Table_wrappers.temporal_point_class ~h ~localized in
  let compare_deposit a b =
    let c = compare b.d_delta a.d_delta in
    if c <> 0 then c
    else
      let c = compare a.off b.off in
      if c <> 0 then c
      else
        compare
          (a.d_stmt, a.d_def, a.d_id)
          (b.d_stmt, b.d_def, b.d_id)
  in
  (* One full-box partition per component cell; deposit times are
     relative to each class's first-seen point. *)
  let cells =
    List.map
      (fun cell ->
        let classes : (Vec.t, int * deposit list ref) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (members, { Solvers.m; delta }) ->
            Unroll_space.iter space (fun o ->
                let key, shift_p = point_class (Vec.add m o) in
                let bucket, shift =
                  match Hashtbl.find_opt classes key with
                  | Some (shift_r, bucket) -> (bucket, shift_p - shift_r)
                  | None ->
                      let bucket = ref [] in
                      Hashtbl.add classes key (shift_p, bucket);
                      (bucket, 0)
                in
                let off = Vec.to_array o in
                List.iter
                  (fun ((s : Site.t), d_rel, is_def) ->
                    bucket :=
                      { off;
                        d_delta = delta + d_rel + shift;
                        d_stmt = s.Site.stmt;
                        d_def = is_def;
                        d_id = s.Site.id }
                      :: !bucket)
                  members))
          cell;
        Hashtbl.fold
          (fun _ (_, bucket) acc ->
            let a = Array.of_list !bucket in
            Array.sort compare_deposit a;
            a :: acc)
          classes [])
      comps
  in
  let dim = Unroll_space.depth space in
  fun u ->
    if not (Unroll_space.mem space u) then
      invalid_arg "Table_reference.unrolled_summary_fn: unroll vector out of space";
    let ub = Vec.to_array u in
    let inside off =
      let ok = ref true in
      for k = 0 to dim - 1 do
        if off.(k) > ub.(k) then ok := false
      done;
      !ok
    in
    let streams = ref 0 and mem = ref 0 and regs = ref 0 in
    List.iter
      (List.iter (fun deposits ->
           if invariant then begin
             if Array.exists (fun e -> inside e.off) deposits then begin
               incr streams;
               incr regs
             end
           end
           else begin
             (* walk in time order, splitting at defs: mirrors
                [split_at_defs] + [summarize] on the filtered list *)
             let open_ = ref false and mn = ref 0 and mx = ref 0 in
             let close () =
               if !open_ then begin
                 incr streams;
                 incr mem;
                 regs := !regs + (!mx - !mn + 1);
                 open_ := false
               end
             in
             Array.iter
               (fun e ->
                 if inside e.off then
                   if e.d_def then begin
                     close ();
                     open_ := true;
                     mn := e.d_delta;
                     mx := e.d_delta
                   end
                   else if not !open_ then begin
                     open_ := true;
                     mn := e.d_delta;
                     mx := e.d_delta
                   end
                   else begin
                     if e.d_delta < !mn then mn := e.d_delta;
                     if e.d_delta > !mx then mx := e.d_delta
                   end)
               deposits;
             close ()
           end))
      cells;
    { Streams.streams = !streams; memory_ops = !mem; registers = !regs }

(* One pass over the space fills all three summaries, and the summary
   closures skip stream materialisation entirely (one full-box
   partition per UGS, then an allocation-free walk per cell). *)
let summary_tables ?groups space ~localized nest =
  let groups = match groups with Some gs -> gs | None -> Ugs.of_nest nest in
  let fns = List.map (fun g -> unrolled_summary_fn space ~localized g) groups in
  let streams = Unroll_space.Table.create space 0 in
  let mem = Unroll_space.Table.create space 0 in
  let reg = Unroll_space.Table.create space 0 in
  Unroll_space.iter space (fun u ->
      let st, m, r =
        List.fold_left
          (fun (st, m, r) fn ->
            let s = fn u in
            ( st + s.Streams.streams,
              m + s.Streams.memory_ops,
              r + s.Streams.registers ))
          (0, 0, 0) fns
      in
      Unroll_space.Table.set streams u st;
      Unroll_space.Table.set mem u m;
      Unroll_space.Table.set reg u r);
  (streams, mem, reg)

(* Merge components, as key offsets from each component's root. *)
let components ~dim ~solver leaders =
  Solvers.components solver ~dim (List.map (fun c -> (c, ())) leaders)
  |> List.map (List.map (fun ((), k) -> k.Solvers.m))

let gts_leaders ~localized (ugs : Ugs.t) =
  List.map
    (fun (s : Site.t) -> Aref.c_vector s.Site.ref_)
    (Groups.leaders (Groups.group_temporal ~localized ugs))

let gss_leaders ~localized (ugs : Ugs.t) =
  List.map
    (fun (s : Site.t) -> Aref.c_vector s.Site.ref_)
    (Groups.leaders (Groups.group_spatial ~localized ugs))

let temporal_solver space ~localized (ugs : Ugs.t) =
  Solvers.temporal ~h:ugs.Ugs.h ~localized
    ~unroll_levels:(Unroll_space.unroll_levels space)

let spatial_solver space ~localized (ugs : Ugs.t) =
  Solvers.spatial ~h:ugs.Ugs.h ~localized
    ~unroll_levels:(Unroll_space.unroll_levels space)

(* Exact totals without the per-[u] rescan.  Copy points [m + o] are
   equivalent when their difference lies in a lattice, so they partition
   into classes independently of which box they are observed in:
   restricting to the box [o <= u] just restricts each class to its
   offsets inside the box.  Hence the table value at [u] is the number
   of classes with at least one offset [<= u] — each class contributes
   +1 on the union of the upward boxes of its offsets ([add_cover]).
   One partition of the full space per component replaces |U|
   partitions of sub-boxes, and [point_class] names each point's class
   outright, so a point costs one hash lookup. *)
let exact_totals_table space ~solver ~point_class leaders =
  let comps = components ~dim:(Unroll_space.depth space) ~solver leaders in
  let t = Unroll_space.Table.create space 0 in
  List.iter
    (fun keys ->
      let classes : (Vec.t, Vec.t list ref) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun m ->
          Unroll_space.iter space (fun o ->
              let key, _ = point_class (Vec.add m o) in
              match Hashtbl.find_opt classes key with
              | Some offsets -> offsets := o :: !offsets
              | None -> Hashtbl.add classes key (ref [ o ])))
        keys;
      Hashtbl.iter
        (fun _ offsets -> Unroll_space.Table.add_cover t !offsets 1)
        classes)
    comps;
  t

let gts_exact_table space ~localized ugs =
  exact_totals_table space
    ~solver:(temporal_solver space ~localized ugs)
    ~point_class:(Table_wrappers.temporal_point_class ~h:ugs.Ugs.h ~localized)
    (gts_leaders ~localized ugs)

let gss_exact_table space ~localized ugs =
  exact_totals_table space
    ~solver:(spatial_solver space ~localized ugs)
    ~point_class:(Table_wrappers.spatial_point_class ~h:ugs.Ugs.h ~localized)
    (gss_leaders ~localized ugs)
