open Ujam_linalg
open Ujam_ir
open Ujam_depend
open Ujam_machine

type classes = { repr : int array; deltas : int array; invariant : bool array }

(* What the classes read from one pair test: the innermost component,
   if every distance outside the innermost loop is 0 or Star. *)
let joining depth = function
  | Test_pair.Independent -> None
  | Test_pair.Dependent dvec ->
      let zero = function Depvec.Exact 0 | Depvec.Star -> true | Depvec.Exact _ -> false in
      if Array.for_all zero (Array.sub dvec 0 (depth - 1)) then Some dvec.(depth - 1) else None

(* How a same-array pair (p, q) of the original body tests in the
   unrolled bodies, where copy [o] of a site adds [H (o * step)] to its
   constant vector and the loop bounds stay put. *)
type fact =
  | Shift of Depvec.t
      (* Separable SIV [H], unit steps: the unbounded solution [x] of
         [H d = c_p - c_q].  Copy [o_q] of q meets copy [o_p] of p at
         distance 0 on an outer level iff [o_q = o_p + x], at any offset
         on a Star level; the innermost component, already range-checked,
         never shifts. *)
  | Per_copy of Mat.t * Mat.t * int array * (int array -> Test_pair.result)
      (* [H_p], [H_q], [c_p - c_q] and the test of [c_p - c_q + H_p s_p -
         H_q s_q] for each copy pair: a coupled [H] (whose integrality
         depends on the copies, so each right-hand side is solved once
         per nest) or another [H] (gcd and Banerjee). *)

type body = { sites : int; steps : int array; pairs : (int * int * fact) list }

let prepare_body nest =
  let refs = Array.of_list (List.map (fun (s : Site.t) -> s.Site.ref_) (Site.of_nest nest)) in
  let depth = Nest.depth nest in
  let steps = Array.map (fun (l : Loop.t) -> l.Loop.step) (Nest.loops nest) in
  let bounds = Graph.bounds nest in
  (* One pair-test setup and one memo of coupled right-hand sides per
     distinct [H]: a test depends on [(H, rhs, bounds)] alone. *)
  let setups = Hashtbl.create 8 in
  let setup h =
    match Hashtbl.find_opt setups h with
    | Some s -> s
    | None ->
        let s = (Test_pair.prepare h, Hashtbl.create 16) in
        Hashtbl.add setups h s;
        s
  in
  let fact rp rq =
    let h = Aref.h_matrix rp and hq = Aref.h_matrix rq in
    if Aref.rank rp <> Aref.rank rq then Some (Shift (Depvec.all_star depth))
    else
      let dc = Vec.to_array (Vec.sub (Aref.c_vector rp) (Aref.c_vector rq)) in
      if not (Mat.equal h hq) then
        Some (Per_copy (h, hq, dc, Test_pair.nonuniform ~bounds hq h))
      else if not (Mat.is_separable_siv h && Array.for_all (( = ) 1) steps) then begin
        let prepared, memo = setup h in
        let test rhs =
          match Hashtbl.find_opt memo rhs with
          | Some r -> r
          | None ->
              let key = Array.copy rhs in
              let r = Test_pair.uniform ~bounds prepared key in
              Hashtbl.add memo key r;
              r
        in
        Some (Per_copy (h, h, dc, test))
      end
      else
        match Test_pair.uniform ~bounds:None (fst (setup h)) dc with
        | Test_pair.Independent -> None
        | Test_pair.Dependent dvec ->
            let inner_in_range =
              match (dvec.(depth - 1), bounds) with
              | Depvec.Exact x, Some bs -> abs x <= snd bs.(depth - 1) - fst bs.(depth - 1)
              | _ -> true
            in
            if inner_in_range then Some (Shift dvec) else None
  in
  let n = Array.length refs in
  let pairs = ref [] in
  for p = n - 1 downto 0 do
    for q = n - 1 downto p do
      if String.equal (Aref.base refs.(p)) (Aref.base refs.(q)) then
        Option.iter (fun f -> pairs := (p, q, f) :: !pairs) (fact refs.(p) refs.(q))
    done
  done;
  { sites = n; steps; pairs = !pairs }

(* [f a b e] for every join of the body unrolled by [u]: each pair of
   sites (a site with itself included) whose test has distance 0 or Star
   outside the innermost loop; [e] is the innermost component of the test
   of [a] against [b].  Site [c * n + p] is copy [c], in
   {!Unroll.offsets} order, of original site [p]. *)
let iter_joins body u offsets f =
  let n = body.sites in
  let depth = Array.length body.steps in
  let copies = Array.length offsets in
  let moved h =
    let shift o = Vec.make (Array.mapi (fun k o -> o * body.steps.(k)) o) in
    Array.map (fun o -> Vec.to_array (Mat.apply h (shift o))) offsets
  in
  List.iter
    (fun (p, q, fact) ->
      match fact with
      | Shift dvec ->
          for ca = 0 to copies - 1 do
            let rec targets k cb =
              if k = depth - 1 then begin
                if p <> q || cb >= ca then f ((ca * n) + p) ((cb * n) + q) dvec.(k)
              end
              else
                let top = Vec.get u k in
                match dvec.(k) with
                | Depvec.Exact x ->
                    let o = offsets.(ca).(k) + x in
                    if o >= 0 && o <= top then targets (k + 1) ((cb * (top + 1)) + o)
                | Depvec.Star ->
                    for o = 0 to top do
                      targets (k + 1) ((cb * (top + 1)) + o)
                    done
            in
            targets 0 0
          done
      | Per_copy (hp, hq, dc, test) ->
          let mp = moved hp and mq = moved hq and rhs = Array.copy dc in
          for ca = 0 to copies - 1 do
            for cb = (if p = q then ca else 0) to copies - 1 do
              Array.iteri (fun r c -> rhs.(r) <- c + mp.(ca).(r) - mq.(cb).(r)) dc;
              Option.iter (f ((ca * n) + p) ((cb * n) + q)) (joining depth (test rhs))
            done
          done)
    body.pairs

let inner_distance = function Depvec.Exact d -> d | Depvec.Star -> 0

(* Time offsets by breadth-first search from each class's first site,
   taking each site's joins in [Graph.build]'s pair order, that is by
   ascending partner. *)
let replay body u offsets total =
  let adj = Array.make total [] in
  iter_joins body u offsets (fun a b e ->
      let d = inner_distance e in
      adj.(a) <- (b, -d) :: adj.(a);
      adj.(b) <- (a, d) :: adj.(b));
  let deltas = Array.make total 0 and settled = Array.make total false in
  for s = 0 to total - 1 do
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
          (List.sort compare adj.(v))
      done
    end
  done;
  deltas

(* The classes of the body unrolled by [u] from one pass over its joins:
   a union-find rooted at each class's first site, [offset.(i)] being
   [delta i - delta parent.(i)].  Where two joins disagree the offsets
   depend on the join order, and they are replayed (replaying every
   vector takes three to four times as long, EXPERIMENTS.md). *)
let classify body u =
  let offsets = Array.of_list (List.map Vec.to_array (Unroll.offsets u)) in
  let total = Array.length offsets * body.sites in
  let invariant = Array.make total false in
  let parent = Array.init total Fun.id and offset = Array.make total 0 in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = find p in
      offset.(i) <- offset.(i) + offset.(p);
      parent.(i) <- r;
      r
    end
  in
  let consistent = ref true in
  iter_joins body u offsets (fun a b e ->
      if e = Depvec.Star then begin
        invariant.(a) <- true;
        invariant.(b) <- true
      end;
      let ra = find a and rb = find b in
      (* delta b = delta a - d, so this is delta rb - delta ra *)
      let x = offset.(a) - inner_distance e - offset.(b) in
      if ra < rb then begin
        parent.(rb) <- ra;
        offset.(rb) <- x
      end
      else if rb < ra then begin
        parent.(ra) <- rb;
        offset.(ra) <- -x
      end
      else if x <> 0 then consistent := false);
  let repr = Array.init total find in
  { repr; deltas = (if !consistent then offset else replay body u offsets total); invariant }

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

let classes nest =
  let plain = prepare_body nest and truncated = prepare_body (truncate_nest nest) in
  fun u -> Unroll.validate nest u; (classify plain u, classify truncated u)

let class_members (c : classes) n =
  let cells = Array.make n [] in
  for i = n - 1 downto 0 do
    cells.(c.repr.(i)) <- i :: cells.(c.repr.(i))
  done;
  List.filter_map
    (fun i -> match cells.(c.repr.(i)) with j :: _ as m when j = i -> Some m | _ -> None)
    (List.init n Fun.id)

let of_sites ~machine sites ~flops (temporal, spatial) =
  let n = Array.length sites in
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
  (* Equation 1 via the classes: per spatial class, base factor times
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

let of_classes ~machine unrolled =
  of_sites ~machine (Array.of_list (Site.of_nest unrolled))
    ~flops:(Nest.flops_per_iteration unrolled)

(* The unrolled body's sites without building it: copy [c] (the [c]-th
   offset in lex order, as {!Unroll} lays the copies out) of site [p] is
   site [c * n + p], in statement [c * stmts + stmt p], its reference
   shifted by the copy's iterations; each copy keeps the body's flops. *)
let metrics ~machine nest =
  let classes = classes nest and sites = Array.of_list (Site.of_nest nest) in
  let n = Array.length sites and stmts = List.length (Nest.body nest) in
  let steps = Array.map (fun (l : Loop.t) -> l.Loop.step) (Nest.loops nest) in
  let copy c o =
    let iters = Array.mapi (fun k x -> x * steps.(k)) (Vec.to_array o) in
    Array.map
      (fun (s : Site.t) ->
        { s with id = (c * n) + s.id; stmt = (c * stmts) + s.stmt; ref_ = Aref.shift s.ref_ iters })
      sites
  in
  fun u ->
    let cls = classes u in
    of_sites ~machine
      (Array.concat (List.mapi copy (Unroll.offsets u)))
      ~flops:(Unroll_space.copies u * Nest.flops_per_iteration nest)
      cls

let best ~cache ~machine space nest =
  Bruteforce.best_of ~cache ~machine space (metrics ~machine nest)

let graph_cost nest u =
  let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
  let with_input = List.length (Graph.build ~include_input:true unrolled).Graph.edges in
  let without = List.length (Graph.build ~include_input:false unrolled).Graph.edges in
  (with_input, without)
