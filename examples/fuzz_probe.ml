(* Cost of the fuzz oracle's layers on the e2e fuzz pool: the first nest
   [Fuzz.run] checks for each generator seed from 1997 up, 48 of them,
   leaving out 3-deep nests over 8 references as the e2e workload does.
   Each pass builds one [Subject] per nest, as [Fuzz.run] does, and
   prints the wall time and minor-heap words of

   - sweep: the materialised brute-force sweep ([Subject.sweep]), which
     recount and cross-model share, forced first so that neither layer
     is charged for it;
   - each default layer's check on that subject, in report order;
   - dep: the dependence model on its own, split into its pair-test
     setup ([Depmodel.classes] on the nest) and its per-vector work (the
     classes of every vector of the searched space).

   The dep line repeats work cross-model already did; it is not part of
   the pass total.

   dune exec examples/fuzz_probe.exe -- --passes 10 *)

open Ujam_core
module Fuzz = Ujam_oracle.Fuzz
module Subject = Ujam_oracle.Subject
module Generator = Ujam_workload.Generator

let passes = ref 10

let () =
  Arg.parse
    [ ("--passes", Arg.Set_int passes, "N  passes (default 10)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz_probe [--passes N]"

let cfg = { (Fuzz.default_config ()) with Fuzz.n = 1; domains = 1 }

(* The nest [Fuzz.run] checks for a generator seed. *)
let first_nest seed =
  let stats = Generator.stats () and st = Random.State.make [| seed |] in
  let rec draw idx =
    if idx >= 24 then None
    else
      match
        List.find_opt
          (fun n -> Ujam_ir.Nest.depth n <= cfg.Fuzz.max_depth)
          (Generator.routine ~stats st idx).Generator.nests
      with
      | Some nest -> Some nest
      | None -> draw (idx + 1)
  in
  draw 0

let pool =
  let rec collect seed acc =
    if List.length acc = 48 then List.rev acc
    else
      match first_nest seed with
      | Some nest
        when Ujam_ir.Nest.depth nest <= 2 || List.length (Ujam_ir.Nest.refs nest) <= 8 ->
          collect (seed + 1) (nest :: acc)
      | Some _ | None -> collect (seed + 1) acc
  in
  collect 1997 []

(* The pass total sums the sweep and the layers; the dep rows repeat
   work cross-model did. *)
let pass_rows = "sweep" :: List.map Fuzz.layer_name cfg.Fuzz.layers
let rows = pass_rows @ [ "dep setup"; "dep per-vector" ]

let () =
  Printf.printf "%d nests, bound %d, %s\n%!" (List.length pool) cfg.Fuzz.bound
    cfg.Fuzz.machine.Ujam_machine.Machine.name;
  for pass = 1 to !passes do
    (* per row: seconds and minor words, summed over the pool *)
    let time = Hashtbl.create 16 and words = Hashtbl.create 16 in
    let get tbl row = Option.value ~default:0.0 (Hashtbl.find_opt tbl row) in
    let measure row f =
      let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
      let r = f () in
      let t = Unix.gettimeofday () -. t0 and w = Gc.minor_words () -. w0 in
      Hashtbl.replace time row (get time row +. t);
      Hashtbl.replace words row (get words row +. w);
      r
    in
    Gc.full_major ();
    List.iter
      (fun nest ->
        let s =
          Subject.make ~bound:cfg.Fuzz.bound ~max_loops:cfg.Fuzz.max_loops
            ~machine:cfg.Fuzz.machine nest
        in
        ignore (measure "sweep" (fun () -> Subject.sweep s) : Bruteforce.metrics array);
        List.iter
          (fun (l : Fuzz.layer) ->
            ignore (measure l.Fuzz.name (fun () -> l.Fuzz.check cfg s) : _ * _))
          cfg.Fuzz.layers;
        let classes = measure "dep setup" (fun () -> Depmodel.classes nest) in
        measure "dep per-vector" (fun () ->
            Unroll_space.iter (Analysis_ctx.space (Subject.ctx s)) (fun u ->
                ignore (classes u : _ * _))))
      pool;
    let total tbl = List.fold_left (fun acc row -> acc +. get tbl row) 0.0 pass_rows in
    Printf.printf "pass %d  total %.4f s %.2fM words" pass (total time) (total words /. 1e6);
    List.iter
      (fun row -> Printf.printf "  %s %.4f s %.2fM" row (get time row) (get words row /. 1e6))
      rows;
    print_newline ()
  done
