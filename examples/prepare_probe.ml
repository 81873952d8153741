(* Cost of the table builders on the Table-1 corpus: the 19 catalogue
   kernels plus the seeded generator routines, the inputs of the
   corpus benchmark.  Each pass times three jobs over the same nests on
   the alpha preset and prints their wall time and minor-heap words:

   - prepare: [Balance.prepare] on every nest over the space the engine
     searches at bound [B];
   - rank:    [Locality.rank_outer_loops] on every nest;
   - corpus:  [Engine.run_corpus] and [Engine.to_string] per routine.

   With [--nest FILE] a pass times [Balance.prepare] on the loop nest
   in FILE alone, over bound [B] on every outer level (the space of
   [ujc tables FILE -b B]).

   dune exec examples/prepare_probe.exe -- --bound 4 --passes 8
   dune exec examples/prepare_probe.exe -- --bound 64 --passes 3 --nest diag3.loop *)

open Ujam_core
module Generator = Ujam_workload.Generator

let bound = ref 4
let passes = ref 8
let nest_file = ref ""

let () =
  Arg.parse
    [ ("--bound", Arg.Set_int bound, "B  unroll bound per level (default 4)");
      ("--passes", Arg.Set_int passes, "N  passes (default 8)");
      ("--nest", Arg.Set_string nest_file, "FILE  time Balance.prepare on this loop nest only") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "prepare_probe [--bound B] [--passes N] [--nest FILE]"

let machine = Ujam_machine.Presets.alpha

(* Seconds and minor words of [f ()]. *)
let measure f =
  Gc.full_major ();
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)

let () =
  if !nest_file <> "" then begin
    let text = In_channel.with_open_bin !nest_file In_channel.input_all in
    let nest = Ujam_ir.Parse.nest_exn ~name:(Filename.basename !nest_file) text in
    let d = Ujam_ir.Nest.depth nest in
    let space = Unroll_space.make ~bounds:(Array.init d (fun k -> if k = d - 1 then 0 else !bound)) in
    for pass = 1 to !passes do
      let t, w = measure (fun () -> ignore (Balance.prepare ~machine space nest : Balance.t)) in
      Printf.printf "pass %d  prepare %.3f s %.1fM words\n%!" pass t (w /. 1e6)
    done;
    exit 0
  end

let routines =
  List.map
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      { Generator.name = e.Ujam_kernels.Catalogue.name;
        nests = [ e.Ujam_kernels.Catalogue.build ~n:24 () ] })
    Ujam_kernels.Catalogue.all
  @ Generator.corpus ~seed:1 ~stats:(Generator.stats ()) ~count:1168 ()

let nests = List.concat_map (fun (r : Generator.routine) -> r.Generator.nests) routines

(* The UGS partition and the space the engine searches: the two
   best-ranked outer levels, each bounded by its safe unroll amount. *)
let cases =
  List.map
    (fun nest ->
      let ctx = Analysis_ctx.create ~bound:!bound ~machine nest in
      (nest, Analysis_ctx.ugs ctx, Analysis_ctx.space ctx))
    nests

let () =
  Printf.printf "%d routines, %d nests, bound %d\n%!" (List.length routines) (List.length nests)
    !bound;
  for pass = 1 to !passes do
    let prepare, prepare_w =
      measure (fun () ->
          List.iter
            (fun (nest, groups, space) ->
              ignore (Balance.prepare ~groups ~machine space nest : Balance.t))
            cases)
    in
    let rank, rank_w =
      measure (fun () ->
          List.iter
            (fun (nest, groups, _) ->
              ignore
                (Ujam_reuse.Locality.rank_outer_loops ~groups
                   ~line:machine.Ujam_machine.Machine.cache_line nest
                  : (int * float) list))
            cases)
    in
    let corpus, corpus_w =
      measure (fun () ->
          List.iter
            (fun r ->
              ignore
                (Ujam_engine.Engine.to_string
                   (Ujam_engine.Engine.run_corpus ~bound:!bound ~machine [ r ])
                  : string))
            routines)
    in
    Printf.printf
      "pass %d  prepare %.3f s %.1fM words  rank %.3f s %.1fM words  corpus %.3f s %.1fM words\n%!"
      pass prepare (prepare_w /. 1e6) rank (rank_w /. 1e6) corpus (corpus_w /. 1e6)
  done
