(* The dependence model's classes as the input-inclusive dependence graph
   of the materialised unrolled body gives them: the reference that
   [Depmodel.classes], which derives them from the original nest's pair
   tests, is checked against. *)

open Ujam_ir
open Ujam_depend

module Uf = struct
  let create n = Array.init n Fun.id

  let rec find t i = if t.(i) = i then i else find t t.(i)

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.(ra) <- rb
end

(* Partition the sites of [nest] by "distance zero outside the innermost
   loop" dependence edges, in the graph's edge order. *)
let classify nest : Ujam_core.Depmodel.classes =
  let n = List.length (Site.of_nest nest) in
  let depth = Nest.depth nest in
  let uf = Uf.create n in
  let invariant = Array.make n false in
  let graph = Graph.build ~include_input:true nest in
  let joins = ref [] in
  List.iter
    (fun (e : Graph.edge) ->
      let zero_outside =
        let ok = ref true in
        for k = 0 to depth - 2 do
          match e.Graph.dvec.(k) with
          | Depvec.Exact 0 | Depvec.Star -> ()
          | Depvec.Exact _ -> ok := false
        done;
        !ok
      in
      if zero_outside then begin
        let a = e.Graph.src.Site.id and b = e.Graph.dst.Site.id in
        match e.Graph.dvec.(depth - 1) with
        | Depvec.Exact d ->
            if a <> b then begin
              Uf.union uf a b;
              joins := (a, b, d) :: !joins
            end
        | Depvec.Star ->
            invariant.(a) <- true;
            invariant.(b) <- true;
            if a <> b then begin
              Uf.union uf a b;
              joins := (a, b, 0) :: !joins
            end
      end)
    graph.Graph.edges;
  let deltas = Array.make n 0 in
  let settled = Array.make n false in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b, d) ->
      adj.(a) <- (b, -d) :: adj.(a);
      adj.(b) <- (a, d) :: adj.(b))
    !joins;
  for s = 0 to n - 1 do
    if not settled.(s) then begin
      settled.(s) <- true;
      let queue = Queue.create () in
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        List.iter
          (fun (w, d) ->
            if not settled.(w) then begin
              settled.(w) <- true;
              deltas.(w) <- deltas.(v) + d;
              Queue.add w queue
            end)
          adj.(v)
      done
    end
  done;
  { repr = Array.init n (Uf.find uf); deltas; invariant }

let truncate_nest nest =
  let truncate (r : Aref.t) =
    let subs = Array.copy r.Aref.subs in
    if Array.length subs > 0 then subs.(0) <- Affine.const ~depth:(Aref.depth r) 0;
    { r with Aref.subs }
  in
  Nest.with_body nest (List.map (Stmt.map_refs truncate) (Nest.body nest))

(* Temporal and spatial classes of the body unrolled by [u]. *)
let classes nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  (classify unrolled, classify (truncate_nest unrolled))

(* The classes' members, each class in id order and the classes ordered
   by their first member: the partition without the representatives'
   names. *)
let members (c : Ujam_core.Depmodel.classes) =
  let cells = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i r ->
      match Hashtbl.find_opt cells r with
      | Some cell -> cell := i :: !cell
      | None ->
          let cell = ref [ i ] in
          Hashtbl.add cells r cell;
          order := cell :: !order)
    c.repr;
  List.rev_map (fun cell -> List.rev !cell) !order

let same_classes (a : Ujam_core.Depmodel.classes) (b : Ujam_core.Depmodel.classes) =
  members a = members b && a.deltas = b.deltas && a.invariant = b.invariant

(* Derived and reference classes agree on both bodies, and so do the
   metrics cell for cell. *)
let agrees ~machine nest =
  let derived = Ujam_core.Depmodel.classes nest in
  let metrics = Ujam_core.Depmodel.metrics ~machine nest in
  fun u ->
    let t, s = derived u and t', s' = classes nest u in
    let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
    same_classes t t' && same_classes s s'
    && metrics u = Ujam_core.Depmodel.of_classes ~machine unrolled (t', s')
