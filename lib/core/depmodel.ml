open Ujam_ir
open Ujam_depend
open Ujam_machine

(* Union-find over site ids. *)
module Uf = struct
  let create n = Array.init n Fun.id

  let rec find t i = if t.(i) = i then i else find t t.(i)

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.(ra) <- rb
end

type classes = {
  repr : int array;             (* site id -> class representative *)
  deltas : int array;           (* innermost time offset per site *)
  invariant : bool array;       (* per site *)
}

(* Partition the sites of [nest] by "distance zero outside the innermost
   loop" dependence edges — the dependence-based rendering of
   group-temporal reuse.  Requires input dependences in the graph. *)
let classify nest =
  let sites = Array.of_list (Site.of_nest nest) in
  let n = Array.length sites in
  let depth = Nest.depth nest in
  let uf = Uf.create n in
  let invariant = Array.make n false in
  let graph = Graph.build ~include_input:true nest in
  let joins = ref [] in
  List.iter
    (fun (e : Graph.edge) ->
      (* A Star component stands for the whole solution set along that
         loop, which includes distance 0, so it does not break innermost
         reuse. *)
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
              (* dst touches a fixed location d iterations after src:
                 time offset of dst is src's minus d. *)
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
  (* Propagate time offsets along join edges (BFS per component). *)
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
      deltas.(s) <- 0;
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
  let repr = Array.init n (fun i -> Uf.find uf i) in
  ({ repr; deltas; invariant }, sites)

(* Nest with the contiguous (first) subscript of every reference zeroed:
   references on the same cache-line walk collapse together. *)
let truncate_nest nest =
  let truncate (r : Aref.t) =
    let subs = Array.copy r.Aref.subs in
    if Array.length subs > 0 then
      subs.(0) <- Affine.const ~depth:(Aref.depth r) 0;
    { r with Aref.subs }
  in
  Nest.with_body nest (List.map (Stmt.map_refs truncate) (Nest.body nest))

let class_members (c : classes) n =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  for i = 0 to n - 1 do
    let r = c.repr.(i) in
    (match Hashtbl.find_opt tbl r with
    | Some cell -> cell := i :: !cell
    | None ->
        Hashtbl.add tbl r (ref [ i ]);
        order := r :: !order)
  done;
  List.rev_map (fun r -> List.rev !(Hashtbl.find tbl r)) !order

let metrics ~machine nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  let temporal, sites = classify unrolled in
  let n = Array.length sites in
  let spatial, _ = classify (truncate_nest unrolled) in
  let flops = Nest.flops_per_iteration unrolled in
  (* Streams: def-splitting of each temporal class. *)
  let streams =
    List.concat_map
      (fun members ->
        let inv = List.exists (fun i -> temporal.invariant.(i)) members in
        let base = Aref.base sites.(List.hd members).Site.ref_ in
        let h = Aref.h_matrix sites.(List.hd members).Site.ref_ in
        let ms =
          List.map
            (fun i ->
              { Streams.site = sites.(i);
                delta = temporal.deltas.(i);
                is_def = Site.is_write sites.(i) })
            members
        in
        Streams.build ~base ~h ~invariant:inv ms)
      (class_members temporal n)
  in
  let summary = Streams.summarize streams in
  (* Equation 1 via the graphs: per spatial class, base factor times
     (1 + (temporal classes inside - 1) / line). *)
  let l = float_of_int machine.Machine.cache_line in
  let misses =
    List.fold_left
      (fun acc members ->
        let any_temporal_invariant =
          List.exists (fun i -> temporal.invariant.(i)) members
        in
        let any_spatial_invariant =
          List.exists (fun i -> spatial.invariant.(i)) members
        in
        let base =
          if any_temporal_invariant then 0.0
          else if any_spatial_invariant then 1.0 /. l
          else 1.0
        in
        let inner_temporal =
          List.sort_uniq compare (List.map (fun i -> temporal.repr.(i)) members)
        in
        let n_t = List.length inner_temporal in
        acc +. (base *. (1.0 +. (float_of_int (n_t - 1) /. l))))
      0.0 (class_members spatial n)
  in
  Bruteforce.of_summary ~machine summary ~flops ~misses

let best ~cache ~machine space nest =
  Bruteforce.best_of ~cache ~machine space (metrics ~machine nest)

let graph_cost nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  let with_input = List.length (Graph.build ~include_input:true unrolled).Graph.edges in
  let without = List.length (Graph.build ~include_input:false unrolled).Graph.edges in
  (with_input, without)
