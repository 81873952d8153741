open Ujam_ir
open Ujam_machine

type stage = Graph | Tables | Search

let stages = [ Graph; Tables; Search ]

let index = function Graph -> 0 | Tables -> 1 | Search -> 2

type timings = float array

type t = {
  nest : Nest.t;
  machine : Machine.t;
  bound : int;
  max_loops : int;
  timings : timings;
  table_builds : int ref;
  graph : Ujam_depend.Graph.t Lazy.t;
  graph_with_input : Ujam_depend.Graph.t Lazy.t;
  safety : int array Lazy.t;
  ugs : Ujam_reuse.Ugs.t list Lazy.t;
  sites : Site.t list Lazy.t;
  ranked : (int * float) list Lazy.t;
  levels_and_space : (int list * Unroll_space.t) Lazy.t;
  balance : Balance.t Lazy.t;
}

let zero_timings () = Array.make (List.length stages) 0.0
let stage_time (t : timings) stage = t.(index stage)

let stage_name = function
  | Graph -> "graph"
  | Tables -> "tables"
  | Search -> "search"

let record (timings : timings) stage dt =
  let i = index stage in
  timings.(i) <- timings.(i) +. dt

(* Each stage timer is also a span: the same [t0]/[dt] pair feeds both
   the timing counter and the trace event, so the sum of span durations
   per stage equals the counter exactly (a golden test pins this). *)
let timed_into timings stage f =
  let t0 = Ujam_obs.Obs.now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Ujam_obs.Obs.now () -. t0 in
      record timings stage dt;
      Ujam_obs.Obs.Span.emit ~name:(stage_name stage) ~t0 ~dur:dt)
    f

let create ?(bound = 10) ?(max_loops = 2) ~machine nest =
  let timings = zero_timings () in
  let table_builds = ref 0 in
  let graph =
    lazy
      (timed_into timings Graph (fun () ->
           Ujam_depend.Graph.build ~include_input:false nest))
  in
  let graph_with_input =
    lazy
      (timed_into timings Graph (fun () ->
           Ujam_depend.Graph.build ~include_input:true nest))
  in
  let safety =
    lazy
      (timed_into timings Graph (fun () ->
           Ujam_depend.Safety.max_safe_unroll (Lazy.force graph)))
  in
  let ugs = lazy (Ujam_reuse.Ugs.of_nest nest) in
  let sites = lazy (Site.of_nest nest) in
  let ranked =
    lazy
      (Ujam_reuse.Locality.rank_outer_loops ~groups:(Lazy.force ugs)
         ~line:machine.Machine.cache_line nest)
  in
  let levels_and_space =
    lazy
      (let d = Nest.depth nest in
       let safety = Lazy.force safety in
       let levels =
         Lazy.force ranked
         |> List.filter (fun (level, _) -> safety.(level) > 0)
         |> List.filteri (fun i _ -> i < max_loops)
         |> List.map fst
       in
       let bounds = Array.make d 0 in
       List.iter (fun level -> bounds.(level) <- min bound safety.(level)) levels;
       (levels, Unroll_space.make ~bounds))
  in
  let balance =
    lazy
      (incr table_builds;
       timed_into timings Tables (fun () ->
           let _, space = Lazy.force levels_and_space in
           Balance.prepare ~groups:(Lazy.force ugs) ~machine space nest))
  in
  { nest; machine; bound; max_loops; timings; table_builds; graph;
    graph_with_input; safety; ugs; sites; ranked; levels_and_space; balance }

let nest t = t.nest
let machine t = t.machine
let bound t = t.bound
let max_loops t = t.max_loops
let graph t = Lazy.force t.graph
let graph_with_input t = Lazy.force t.graph_with_input
let safety t = Array.copy (Lazy.force t.safety)
let ugs t = Lazy.force t.ugs
let sites t = Lazy.force t.sites
let ranked t = Lazy.force t.ranked
let unroll_levels t = fst (Lazy.force t.levels_and_space)
let space t = snd (Lazy.force t.levels_and_space)
let balance t = Lazy.force t.balance
let table_builds t = !(t.table_builds)
let timed t stage f = timed_into t.timings stage f
let timings t = t.timings

let pp_timings ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf s -> Format.fprintf ppf "%s %.3fs" (stage_name s) (stage_time t s))
    ppf stages
