open Ujam_linalg
open Ujam_ir
open Ujam_reuse

type member = { site : Site.t; delta : int; is_def : bool }

type stream = { base : string; h : Mat.t; invariant : bool; members : member list }

let span members =
  match members with
  | [] -> 0
  | m :: rest ->
      let mn, mx =
        List.fold_left
          (fun (mn, mx) m -> (min mn m.delta, max mx m.delta))
          (m.delta, m.delta) rest
      in
      mx - mn

let registers s = if s.invariant then 1 else span s.members + 1
let memory_ops s = if s.invariant then 0 else 1

(* Time order: larger delta touches a fixed location earlier; within one
   iteration, statement order (body copies are statements of their own
   in a materialised body), and a statement's reads execute before its
   write. *)
let time_sort members =
  let rank m = (m.site.Site.stmt, (if m.is_def then 1 else 0), m.site.Site.id) in
  List.stable_sort
    (fun a b ->
      let c = compare b.delta a.delta in
      if c <> 0 then c else compare (rank a) (rank b))
    members

(* A definition regenerates the value, so it begins a new stream. *)
let split_at_defs ~base ~h ~invariant members =
  if invariant then
    match members with [] -> [] | ms -> [ { base; h; invariant; members = ms } ]
  else begin
    let finished = ref [] in
    let current = ref [] in
    let flush () =
      if !current <> [] then begin
        finished := { base; h; invariant; members = List.rev !current } :: !finished;
        current := []
      end
    in
    List.iter
      (fun m ->
        if m.is_def then flush ();
        current := m :: !current)
      members;
    flush ();
    List.rev !finished
  end

let build ~base ~h ~invariant members = split_at_defs ~base ~h ~invariant (time_sort members)

(* Each member's time offset is its witness's innermost component
   relative to the class leader; [solver] is [H] prepared against [L]. *)
let class_streams solver ~invariant ~h ~base (sites : Site.t list) =
  match sites with
  | [] -> []
  | leader :: _ ->
      let c0 = Aref.c_vector leader.Site.ref_ in
      let members =
        List.map
          (fun (s : Site.t) ->
            let delta =
              match Subspace.solve solver (Vec.sub (Aref.c_vector s.Site.ref_) c0) with
              | Some x -> Vec.get x (Vec.dim x - 1)
              | None -> 0 (* unreachable: sites come from one GTS class *)
            in
            { site = s; delta; is_def = Site.is_write s })
          sites
      in
      split_at_defs ~base ~h ~invariant (time_sort members)

let of_partition solver ~invariant (u : Ugs.t) (part : Groups.partition) =
  List.concat_map
    (class_streams solver ~invariant ~h:u.Ugs.h ~base:u.Ugs.base)
    part.Groups.classes

let of_body ~localized nest =
  List.concat_map
    (fun (u : Ugs.t) ->
      let solver = Subspace.prepare u.Ugs.h localized in
      of_partition solver
        ~invariant:(Selfreuse.has_self_temporal ~localized u.Ugs.h)
        u
        (Groups.temporal_partition solver u))
    (Ugs.of_nest nest)

type summary = { streams : int; memory_ops : int; registers : int }

let summarize ss =
  List.fold_left
    (fun acc s ->
      { streams = acc.streams + 1;
        memory_ops = acc.memory_ops + memory_ops s;
        registers = acc.registers + registers s })
    { streams = 0; memory_ops = 0; registers = 0 }
    ss

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
   classes restrict to sub-boxes; [Solvers.temporal_point_class] names
   each point's class), each deposit's time offset, and the total time
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
  let point_class = Solvers.temporal_point_class ~h ~localized in
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
      invalid_arg "Streams.unrolled_summary_fn: unroll vector out of space";
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
    { streams = !streams; memory_ops = !mem; registers = !regs }
