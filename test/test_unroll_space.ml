open Ujam_linalg
open Ujam_core

let v = Vec.of_list

(* [add_from t lo x] adds [x] at every [u >= lo]: the cover of one
   point. *)
let add_from t lo x = Unroll_space.Table.add_cover t [ lo ] x

let test_make () =
  let s = Unroll_space.make ~bounds:[| 2; 3; 0 |] in
  Alcotest.(check int) "card" 12 (Unroll_space.card s);
  Alcotest.(check int) "depth" 3 (Unroll_space.depth s);
  Alcotest.(check (list int)) "unroll levels" [ 0; 1 ] (Unroll_space.unroll_levels s);
  Alcotest.(check bool) "mem" true (Unroll_space.mem s (v [ 2; 3; 0 ]));
  Alcotest.(check bool) "not mem" false (Unroll_space.mem s (v [ 3; 0; 0 ]));
  Alcotest.(check bool) "negative not mem" false (Unroll_space.mem s (v [ -1; 0; 0 ]));
  Alcotest.check_raises "innermost must be zero"
    (Invalid_argument "Unroll_space.make: innermost bound must be 0") (fun () ->
      ignore (Unroll_space.make ~bounds:[| 0; 1 |]))

let test_uniform () =
  let s = Unroll_space.uniform ~depth:3 ~bound:4 ~unroll_levels:[ 0 ] in
  Alcotest.(check int) "card" 5 (Unroll_space.card s);
  Alcotest.check_raises "innermost level rejected"
    (Invalid_argument "Unroll_space.uniform: level out of range") (fun () ->
      ignore (Unroll_space.uniform ~depth:3 ~bound:2 ~unroll_levels:[ 2 ]))

let test_iteration () =
  let s = Unroll_space.make ~bounds:[| 1; 2; 0 |] in
  let vs = Unroll_space.vectors s in
  Alcotest.(check int) "all vectors" 6 (List.length vs);
  Alcotest.(check bool) "lexicographic" true
    (List.for_all2
       (fun a b -> Vec.compare a b < 0)
       (List.filteri (fun i _ -> i < 5) vs)
       (List.tl vs));
  Alcotest.(check bool) "all members" true (List.for_all (Unroll_space.mem s) vs)

let test_table () =
  let s = Unroll_space.make ~bounds:[| 2; 2; 0 |] in
  let t = Unroll_space.Table.create s 5 in
  Alcotest.(check int) "initial" 5 (Unroll_space.Table.get t (v [ 1; 1; 0 ]));
  Unroll_space.Table.set t (v [ 1; 1; 0 ]) 9;
  Unroll_space.Table.add t (v [ 1; 1; 0 ]) 1;
  Alcotest.(check int) "set/add" 10 (Unroll_space.Table.get t (v [ 1; 1; 0 ]));
  Alcotest.(check int) "others untouched" 5 (Unroll_space.Table.get t (v [ 2; 1; 0 ]));
  Alcotest.check_raises "out of space"
    (Invalid_argument "Unroll_space.Table: out of space") (fun () ->
      ignore (Unroll_space.Table.get t (v [ 3; 0; 0 ])))

let test_table_regions () =
  let s = Unroll_space.make ~bounds:[| 2; 2; 0 |] in
  let t = Unroll_space.Table.create s 0 in
  add_from t (v [ 1; 1; 0 ]) 1;
  Alcotest.(check int) "inside" 1 (Unroll_space.Table.get t (v [ 2; 1; 0 ]));
  Alcotest.(check int) "outside" 0 (Unroll_space.Table.get t (v [ 2; 0; 0 ]));
  let t2 = Unroll_space.Table.create s 0 in
  Unroll_space.Table.add_cover t2 [ v [ 2; 0; 0 ]; v [ 0; 2; 0 ] ] 1;
  Alcotest.(check int) "in one box" 1 (Unroll_space.Table.get t2 (v [ 2; 1; 0 ]));
  Alcotest.(check int) "in both, once" 1 (Unroll_space.Table.get t2 (v [ 2; 2; 0 ]));
  Alcotest.(check int) "below" 0 (Unroll_space.Table.get t2 (v [ 1; 1; 0 ]))

let test_prefix_sum () =
  let s = Unroll_space.make ~bounds:[| 2; 2; 0 |] in
  let t = Unroll_space.Table.create s 1 in
  (* Sum over u' <= u of 1 = product of (u_k + 1) *)
  Alcotest.(check int) "prefix at origin" 1
    (Unroll_space.Table.prefix_sum t (v [ 0; 0; 0 ]));
  Alcotest.(check int) "prefix box" 6 (Unroll_space.Table.prefix_sum t (v [ 1; 2; 0 ]));
  Alcotest.(check int) "prefix full" 9 (Unroll_space.Table.prefix_sum t (v [ 2; 2; 0 ]))

(* ------------------------------------------------------------------ *)
(* QCheck parity: random write/read programs executed against the sweep
   engine and the per-cell [Reference] oracle must agree exactly, at
   every cell, for both [get] and [prefix_sum].  Region corners range
   one step outside the box on both sides to exercise the clamping. *)

(* The per-cell table semantics the sweep engine must reproduce: every
   region write and every prefix sum is a full-space scan.  Cells are
   keyed by vector, independently of the engine's dense indexing. *)
module Reference = struct
  module Cells = Map.Make (Vec)

  type t = { space : Unroll_space.t; mutable cells : int Cells.t }

  let create space init =
    { space; cells = Unroll_space.fold space Cells.empty (fun m u -> Cells.add u init m) }

  let get t u = Cells.find u t.cells
  let set t u x = t.cells <- Cells.add u x t.cells
  let add t u x = set t u (get t u + x)
  let add_where t p x = Unroll_space.iter t.space (fun u -> if p u then add t u x)
  let add_from t lo x = add_where t (Vec.leq_pointwise lo) x

  let add_cover t ps x =
    add_where t (fun u -> List.exists (fun p -> Vec.leq_pointwise p u) ps) x

  let prefix_sum t v =
    Cells.fold (fun u x s -> if Vec.leq_pointwise u v then s + x else s) t.cells 0
end

type op =
  | Set of Vec.t * int
  | Add of Vec.t * int
  | Add_from of Vec.t * int
  | Add_cover of Vec.t list * int
  | Read of Vec.t  (** forces a materialisation mid-program *)

let vec_to_string u =
  "["
  ^ String.concat ";" (List.map string_of_int (Array.to_list (Vec.to_array u)))
  ^ "]"

let op_to_string = function
  | Set (u, x) -> Printf.sprintf "set %s %d" (vec_to_string u) x
  | Add (u, x) -> Printf.sprintf "add %s %d" (vec_to_string u) x
  | Add_from (u, x) -> Printf.sprintf "add_from %s %d" (vec_to_string u) x
  | Add_cover (ps, x) ->
      Printf.sprintf "add_cover [%s] %d"
        (String.concat " " (List.map vec_to_string ps))
        x
  | Read u -> Printf.sprintf "read %s" (vec_to_string u)

let program_to_string (space, init, ops) =
  Printf.sprintf "bounds=%s init=%d\n%s"
    (String.concat ","
       (Array.to_list (Array.map string_of_int (Unroll_space.bounds space))))
    init
    (String.concat "\n" (List.map op_to_string ops))

let space_gen =
  let open QCheck2.Gen in
  let* d = int_range 2 4 in
  let* bs = flatten_l (List.init (d - 1) (fun _ -> int_range 0 3)) in
  return (Unroll_space.make ~bounds:(Array.of_list (bs @ [ 0 ])))

let program_gen =
  let open QCheck2.Gen in
  let* space = space_gen in
  let bounds = Unroll_space.bounds space in
  let axis_gen lo_pad hi_pad =
    flatten_a (Array.map (fun b -> int_range (-lo_pad) (b + hi_pad)) bounds)
  in
  let in_space = map Vec.make (axis_gen 0 0) in
  let near_space = map Vec.make (axis_gen 1 1) in
  let delta = int_range (-3) 5 in
  let op =
    frequency
      [ (2, map2 (fun u x -> Set (u, x)) in_space delta);
        (2, map2 (fun u x -> Add (u, x)) in_space delta);
        (4, map2 (fun u x -> Add_from (u, x)) near_space delta);
        ( 3,
          map2
            (fun ps x -> Add_cover (ps, x))
            (list_size (int_range 0 5) near_space)
            delta );
        (3, map (fun u -> Read u) in_space) ]
  in
  let* init = int_range (-2) 2 in
  let* ops = list_size (int_range 1 20) op in
  return (space, init, ops)

let prop_table_parity =
  QCheck2.Test.make
    ~name:"unroll-space: sweep engine == per-cell reference (random programs)"
    ~count:1000 ~print:program_to_string program_gen
    (fun (space, init, ops) ->
      let t = Unroll_space.Table.create space init in
      let r = Reference.create space init in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Set (u, x) ->
              Unroll_space.Table.set t u x;
              Reference.set r u x
          | Add (u, x) ->
              Unroll_space.Table.add t u x;
              Reference.add r u x
          | Add_from (u, x) ->
              add_from t u x;
              Reference.add_from r u x
          | Add_cover (ps, x) ->
              Unroll_space.Table.add_cover t ps x;
              Reference.add_cover r ps x
          | Read u ->
              if
                Unroll_space.Table.get t u <> Reference.get r u
                || Unroll_space.Table.prefix_sum t u
                   <> Reference.prefix_sum r u
              then ok := false)
        ops;
      Unroll_space.iter space (fun u ->
          if
            Unroll_space.Table.get t u <> Reference.get r u
            || Unroll_space.Table.prefix_sum t u
               <> Reference.prefix_sum r u
          then ok := false);
      !ok)

(* [iter_pruned] with an upward-closed predicate must visit exactly the
   non-pruned cells, in lexicographic order, and account for every
   skipped cell.  Monotone tables come from positive [add_from]s. *)
let pruned_gen =
  let open QCheck2.Gen in
  let* space = space_gen in
  let bounds = Unroll_space.bounds space in
  let corner =
    map Vec.make
      (flatten_a (Array.map (fun b -> int_range (-1) (b + 1)) bounds))
  in
  let* ops = list_size (int_range 0 6) (pair corner (int_range 1 3)) in
  let* threshold = int_range 0 8 in
  return (space, ops, threshold)

let prop_iter_pruned =
  QCheck2.Test.make
    ~name:"unroll-space: pruned iteration == monotone filter" ~count:500
    ~print:(fun (space, ops, thr) ->
      Printf.sprintf "bounds=%s thr=%d\n%s"
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Unroll_space.bounds space))))
        thr
        (String.concat "\n"
           (List.map
              (fun (lo, x) -> Printf.sprintf "add_from %s %d" (vec_to_string lo) x)
              ops)))
    pruned_gen
    (fun (space, ops, thr) ->
      let t = Unroll_space.Table.create space 0 in
      List.iter (fun (lo, x) -> add_from t lo x) ops;
      let visited = ref [] in
      let pruned =
        Unroll_space.iter_pruned space
          ~prune:(fun u -> Unroll_space.Table.get t u > thr)
          (fun u -> visited := u :: !visited)
      in
      let expected =
        List.filter
          (fun u -> Unroll_space.Table.get t u <= thr)
          (Unroll_space.vectors space)
      in
      List.rev !visited = expected
      && List.length expected + pruned = Unroll_space.card space)

(* Pruning soundness end to end: on every catalogue kernel and both
   machine presets the pruned search returns the choice of the
   exhaustive scan, bit for bit. *)
let test_search_prune_sound () =
  List.iter
    (fun (machine : Ujam_machine.Machine.t) ->
      List.iter
        (fun (e : Ujam_kernels.Catalogue.entry) ->
          let nest = e.Ujam_kernels.Catalogue.build ~n:8 () in
          let ctx = Analysis_ctx.create ~bound:4 ~machine nest in
          let b = Analysis_ctx.balance ctx in
          List.iter
            (fun cache ->
              let fast = Search.best ~prune:true ~cache b in
              let slow = Search.best ~prune:false ~cache b in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s cache=%b"
                   machine.Ujam_machine.Machine.name e.Ujam_kernels.Catalogue.name
                   cache)
                true (fast = slow))
            [ true; false ])
        Ujam_kernels.Catalogue.all)
    [ Ujam_machine.Presets.alpha; Ujam_machine.Presets.hppa ]

let suite =
  [ Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "uniform" `Quick test_uniform;
    Alcotest.test_case "iteration" `Quick test_iteration;
    Alcotest.test_case "table basics" `Quick test_table;
    Alcotest.test_case "table regions" `Quick test_table_regions;
    Alcotest.test_case "prefix sum" `Quick test_prefix_sum;
    Gen.to_alcotest prop_table_parity;
    Gen.to_alcotest prop_iter_pruned;
    Alcotest.test_case "search pruning sound (19 kernels x 2 machines)" `Quick
      test_search_prune_sound ]
