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

(* A member's time offset: its witness's innermost component relative
   to the class leader [c0], [solver] being [H] prepared against [L]. *)
let delta_of solver c0 (s : Site.t) =
  match Subspace.solve solver (Vec.sub (Aref.c_vector s.Site.ref_) c0) with
  | Some x -> Vec.get x (Vec.dim x - 1)
  | None -> 0 (* unreachable: sites come from one GTS class *)

let class_streams solver ~invariant ~h ~base (sites : Site.t list) =
  match sites with
  | [] -> []
  | leader :: _ ->
      let c0 = Aref.c_vector leader.Site.ref_ in
      let member s = { site = s; delta = delta_of solver c0 s; is_def = Site.is_write s } in
      split_at_defs ~base ~h ~invariant (time_sort (List.map member sites))

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

(* The unrolled loop's classes are the classes of the merge-key-shifted
   copy points with offsets in [0..u], so one partition of the full box
   serves every cell, and each deposit's time and the time order (delta
   descending, then copy offset in lex order — a copy's textual rank in
   any box — then statement, def, site id) are fixed once.  A class
   counts in g_T, and in an invariant UGS's streams, where one of its
   offsets is below [u]: a cover.  A varying class's streams depend on
   the offsets below [u], which are those below their join: [F] at the
   points of the join closure, Möbius-inverted, is one corner each
   (a closure of more than sqrt card points is written cell by cell). *)
type tables = {
  space : Unroll_space.t;
  stream_table : Unroll_space.Table.t;
  mem_table : Unroll_space.Table.t;
  reg_table : Unroll_space.Table.t;
}

let create_tables space =
  let table () = Unroll_space.Table.create space 0 in
  { space; stream_table = table (); mem_table = table (); reg_table = table () }

(* [off] is the copy offset's {!Unroll_space.index}, its lex rank. *)
type deposit = { off : int; delta : int; stmt : int; def : bool; id : int }

let time_order a b =
  if a.delta <> b.delta then compare b.delta a.delta
  else if a.off <> b.off then compare a.off b.off
  else if a.stmt <> b.stmt then compare a.stmt b.stmt
  else if a.def <> b.def then compare a.def b.def
  else compare a.id b.id

(* [split_at_defs] + [summarize] over the deposits [ds.(i)] with
   [inside i]: a stream opens at the first of them and at each def, and
   needs its first delta minus its last (deltas descend) plus one
   registers.  The non-defs of one time right after an inside deposit
   change neither, so they are skipped without testing their offsets. *)
let summary_of ds inside =
  let n = Array.length ds in
  let streams = ref 0 and regs = ref 0 and first = ref 0 and last = ref 0 and i = ref 0 in
  while !i < n do
    let e = ds.(!i) in
    if inside !i then begin
      if e.def || !streams = 0 then begin
        if !streams > 0 then regs := !regs + !first - !last + 1;
        incr streams;
        first := e.delta
      end;
      last := e.delta;
      while !i + 1 < n && (not ds.(!i + 1).def) && ds.(!i + 1).delta = e.delta do
        incr i
      done
    end;
    incr i
  done;
  if !streams > 0 then regs := !regs + !first - !last + 1;
  (!streams, !regs)

let add_unrolled t ~localized (ugs : Ugs.t) =
  let space = t.space and h = ugs.Ugs.h in
  let card = Unroll_space.card space in
  let solver =
    Solvers.temporal ~h ~localized ~unroll_levels:(Unroll_space.unroll_levels space)
  in
  let local = Subspace.prepare h localized in
  let invariant = Selfreuse.has_self_temporal ~localized h in
  (* Each member as a deposit at offset 0, timed against its leader. *)
  let resolved_classes =
    List.map
      (fun cls ->
        let c0 = Aref.c_vector (List.hd cls).Site.ref_ in
        let deposit (s : Site.t) =
          let delta = delta_of local c0 s in
          { off = 0; delta; stmt = s.Site.stmt; def = Site.is_write s; id = s.Site.id }
        in
        (c0, (c0, List.map deposit cls)))
      (Groups.temporal_partition local ugs).Groups.classes
  in
  (* [H x = c] implies [H_s x = trunc c]: each temporal class lies in
     one spatial class.  A class of a component with root constant [r]
     and reduced key [H (m + o) - t (H b)] holds the copies with constant
     [r + H (m + o)] modulo [H b]; dropping row 0 and reducing modulo
     [H_s b] names its spatial class, and g_S is a cover per one. *)
  let reduce_spatial = Solvers.reducer ~a:(Selfreuse.spatial_matrix h) ~localized in
  let spatial = Hashtbl.create 16 in
  let gts = Unroll_space.Table.create space 0 and gss = Unroll_space.Table.create space 0 in
  let add table l f = Unroll_space.Table.add_lattice table l f in
  List.iter
    (fun cell ->
      let cell = Array.of_list cell in
      let (root, _), _ = cell.(0) in
      let keys, cls, shift =
        Solvers.point_classes ~a:h ~localized space
          (Array.to_list (Array.map (fun (_, k) -> k.Solvers.m) cell))
      in
      let points = Array.make (Array.length keys) [] in
      for j = Array.length cls - 1 downto 0 do
        points.(cls.(j)) <- j :: points.(cls.(j))
      done;
      let deposits j =
        let (_, members), key = cell.(j / card) in
        let off = j mod card and shift = key.Solvers.delta + shift.(j) in
        List.map (fun e -> { e with off; delta = e.delta + shift }) members
      in
      (* An invariant class is one register stream wherever one of its
         offsets is below [u]: a cover.  A varying one's streams below [u]
         are [summary_of] its deposits below the largest point of its
         closure below [u]. *)
      Array.iteri
        (fun c js ->
          let offs = List.map (fun j -> j mod card) js in
          if invariant then
            List.iter
              (fun table -> add table (Unroll_space.cover space offs) (fun _ -> 1))
              [ gts; t.stream_table; t.reg_table ]
          else begin
            let l = Unroll_space.lattice space offs in
            let ds = Array.of_list (List.concat_map deposits js) in
            Array.sort time_order ds;
            let below = Unroll_space.lattice_below l (Array.map (fun e -> e.off) ds) in
            let f = Array.init (Unroll_space.lattice_size l) (fun k -> summary_of ds (below k)) in
            add gts l (fun _ -> 1);
            add t.stream_table l (fun k -> fst f.(k));
            add t.mem_table l (fun k -> fst f.(k));
            add t.reg_table l (fun k -> snd f.(k))
          end;
          let key = Array.mapi (fun r x -> if r = 0 then 0 else Vec.get root r + x) keys.(c) in
          ignore (reduce_spatial key : int);
          match Hashtbl.find_opt spatial key with
          | Some cover -> cover := List.rev_append offs !cover
          | None -> Hashtbl.add spatial key (ref offs))
        points)
    (Solvers.components solver ~dim:(Unroll_space.depth space) resolved_classes);
  Hashtbl.iter (fun _ offs -> add gss (Unroll_space.cover space !offs) (fun _ -> 1)) spatial;
  (gts, gss)
