open Ujam_ir
open Ujam_core
module Obs = Ujam_obs.Obs

let rules =
  [ ("UJ000", Diagnostic.Error, "parse failure");
    ("UJ001", Diagnostic.Error, "malformed IR: level order, bound depth, empty body");
    ("UJ002", Diagnostic.Warning, "loop with a non-positive constant trip count");
    ("UJ003", Diagnostic.Error, "subscript depth differs from the nest depth");
    ("UJ004", Diagnostic.Error, "non-unit loop step");
    ("UJ005", Diagnostic.Error, "subscript coefficient above the supported bound");
    ("UJ006", Diagnostic.Warning, "coupled (non-separable-SIV) subscripts");
    ("UJ007", Diagnostic.Info, "dependences with unknown (*) components");
    ("UJ008", Diagnostic.Warning, "search box clamped by the legality cap");
    ("UJ009", Diagnostic.Warning, "chosen unroll vector overflows the register file");
    ("UJ010", Diagnostic.Warning, "register table not monotone; search degraded");
    ("UJ011", Diagnostic.Info, "no floating-point work; balance undefined");
    ("UJ020", Diagnostic.Error, "unroll-and-jam changed the access multiset");
    ("UJ021", Diagnostic.Error, "interchange changed the access multiset");
    ("UJ022", Diagnostic.Error, "tiling changed the access multiset");
    ("UJ027", Diagnostic.Warning, "UGS reuse distance thrashes a cache level");
    ("UJ028", Diagnostic.Info, "no carried reuse fits a cache level");
    ("UJ029", Diagnostic.Warning, "chosen vector degrades a predicted miss ratio");
    ("UJ030", Diagnostic.Error, "invalid cache geometry in the machine description");
    ("UJ031", Diagnostic.Error, "subscript constant or loop bound outside the supported range") ]

let error = Diagnostic.Error
let warning = Diagnostic.Warning
let info = Diagnostic.Info
let diag ~rule ~severity ?loc ?notes fmt =
  Format.kasprintf (fun m -> Diagnostic.make ~rule ~severity ?loc ?notes m) fmt

let of_parse_error (e : Parse.error) =
  Diagnostic.make ~rule:"UJ000" ~severity:error ~loc:e.Parse.loc e.Parse.message

(* ---- structure phase --------------------------------------------------- *)

let rule_structure nest =
  let name = Nest.name nest in
  let d = Nest.depth nest in
  let ds = ref [] in
  let emit x = ds := x :: !ds in
  Array.iteri
    (fun k (l : Loop.t) ->
      if l.Loop.level <> k then
        emit
          (diag ~rule:"UJ001" ~severity:error ~loc:(Loc.level ~nest:name k)
             "loop %s records level %d but sits at position %d" l.Loop.var
             l.Loop.level k);
      if Affine.depth l.Loop.lo <> d || Affine.depth l.Loop.hi <> d then
        emit
          (diag ~rule:"UJ001" ~severity:error ~loc:(Loc.level ~nest:name k)
             "loop %s: bound expressions have depth %d/%d, nest depth %d"
             l.Loop.var (Affine.depth l.Loop.lo) (Affine.depth l.Loop.hi) d))
    (Nest.loops nest);
  if Nest.body nest = [] then
    emit
      (diag ~rule:"UJ001" ~severity:error ~loc:(Loc.nest name)
         "nest has an empty body");
  List.rev !ds

let rule_trip nest =
  let name = Nest.name nest in
  Array.to_list (Nest.loops nest)
  |> List.filter_map (fun (l : Loop.t) ->
         match Loop.trip_const l with
         | Some t when t < 1 ->
             Some
               (diag ~rule:"UJ002" ~severity:warning
                  ~loc:(Loc.level ~nest:name l.Loop.level)
                  "loop %s runs %d iterations; the nest body is dead" l.Loop.var
                  t)
         | _ -> None)

let rule_subscript_depth nest =
  let name = Nest.name nest in
  let d = Nest.depth nest in
  List.filter_map
    (fun (s : Site.t) ->
      if Aref.depth s.Site.ref_ <> d then
        Some
          (diag ~rule:"UJ003" ~severity:error
             ~loc:(Loc.stmt ~nest:name ~site:s.Site.id s.Site.stmt)
             "%s subscripts range over %d loops, nest depth %d"
             (Aref.base s.Site.ref_) (Aref.depth s.Site.ref_) d)
      else None)
    (Site.of_nest nest)

(* The supported-class fence: one located diagnostic per violation of
   the one scan ({!Supported.violations}). *)
let check_supported nest =
  let name = Nest.name nest in
  let at_site (s : Site.t) = Loc.stmt ~nest:name ~site:s.Site.id s.Site.stmt in
  List.map
    (function
      | Supported.Bad_step l ->
          diag ~rule:"UJ004" ~severity:error
            ~loc:(Loc.level ~nest:name l.Loop.level)
            "loop %s has step %d; the supported class is unit-step" l.Loop.var
            l.Loop.step
      | Supported.Bad_bound { loop; bound } ->
          diag ~rule:"UJ031" ~severity:error
            ~loc:(Loc.level ~nest:name loop.Loop.level)
            "loop %s has bound %d (supported class allows |b| <= %d)"
            loop.Loop.var bound Supported.max_constant
      | Supported.Bad_coefficient { site; dim; coef } ->
          diag ~rule:"UJ005" ~severity:error ~loc:(at_site site)
            "%s: subscript %d uses coefficient %d (supported class allows |a| \
             <= %d)"
            (Aref.base site.Site.ref_) dim coef Supported.max_coefficient
      | Supported.Bad_constant { site; dim; const } ->
          diag ~rule:"UJ031" ~severity:error ~loc:(at_site site)
            "%s: subscript %d uses constant %d (supported class allows |c| \
             <= %d)"
            (Aref.base site.Site.ref_) dim const Supported.max_constant)
    (Supported.violations nest)

let rule_coupled nest =
  let name = Nest.name nest in
  List.filter_map
    (fun (s : Site.t) ->
      if not (Aref.is_separable_siv s.Site.ref_) then
        Some
          (diag ~rule:"UJ006" ~severity:warning
             ~loc:(Loc.stmt ~nest:name ~site:s.Site.id s.Site.stmt)
             "%s has coupled subscripts; dependence distances may be \
              inconsistent (*) and over-constrain legality"
             (Aref.base s.Site.ref_))
      else None)
    (Site.of_nest nest)

let rule_flops nest =
  if Nest.body nest <> [] && Nest.flops_per_iteration nest = 0 then
    [ diag ~rule:"UJ011" ~severity:info ~loc:(Loc.nest (Nest.name nest))
        "no floating-point work: loop balance is undefined and unroll-and-jam \
         has nothing to improve" ]
  else []

let structure_phase nest =
  rule_structure nest @ rule_trip nest @ rule_subscript_depth nest
  @ check_supported nest @ rule_coupled nest @ rule_flops nest

(* ---- analysis phase ---------------------------------------------------- *)

let rule_star ctx =
  let g = Analysis_ctx.graph ctx in
  let star =
    List.filter
      (fun (e : Ujam_depend.Graph.edge) ->
        Array.exists (fun c -> c = Ujam_depend.Depvec.Star) e.Ujam_depend.Graph.dvec)
      g.Ujam_depend.Graph.edges
  in
  if star = [] then []
  else
    let arrays =
      List.sort_uniq String.compare
        (List.map
           (fun (e : Ujam_depend.Graph.edge) ->
             Aref.base e.Ujam_depend.Graph.src.Site.ref_)
           star)
    in
    [ diag ~rule:"UJ007" ~severity:info
        ~loc:(Loc.nest (Nest.name (Analysis_ctx.nest ctx)))
        "%d dependence%s on %s carr%s unknown (*) components; legality uses \
         direction information only"
        (List.length star)
        (if List.length star = 1 then "" else "s")
        (String.concat ", " arrays)
        (if List.length star = 1 then "ies" else "y") ]

let rule_clamped ctx =
  let nest = Analysis_ctx.nest ctx in
  let name = Nest.name nest in
  let bound = Analysis_ctx.bound ctx in
  let safety = Analysis_ctx.safety ctx in
  List.filter_map
    (fun level ->
      if safety.(level) < bound then
        Some
          (diag ~rule:"UJ008" ~severity:warning ~loc:(Loc.level ~nest:name level)
             "search box at loop %s clamped to %d extra cop%s (requested %d) \
              by a carried dependence"
             (Nest.var_name nest level) safety.(level)
             (if safety.(level) = 1 then "y" else "ies")
             bound)
      else None)
    (Analysis_ctx.unroll_levels ctx)

(* The guarded search, shared by UJ009/UJ010 so it runs once. *)
let guarded_search ctx =
  Analysis_ctx.timed ctx Analysis_ctx.Search (fun () ->
      Monotone.search ~cache:true (Analysis_ctx.balance ctx))

let rule_search ctx (choice, violation) =
  let nest = Analysis_ctx.nest ctx in
  let name = Nest.name nest in
  let machine = Analysis_ctx.machine ctx in
  let pressure =
    if choice.Search.registers > machine.Ujam_machine.Machine.fp_registers then
      [ diag ~rule:"UJ009" ~severity:warning ~loc:(Loc.nest name)
          "chosen unroll vector %s wants %d floating-point registers; %s has \
           %d — scalar replacement will spill"
          (Ujam_linalg.Vec.to_string choice.Search.u)
          choice.Search.registers machine.Ujam_machine.Machine.name
          machine.Ujam_machine.Machine.fp_registers ]
    else []
  in
  let monotone =
    match violation with
    | None -> []
    | Some v -> [ Monotone.diagnostic ~nest:name v ]
  in
  pressure @ monotone

(* The miss-profile verdicts (UJ027-UJ029): judge the nest at the vector
   the guarded search chose, against every hierarchy level (or the one
   [level] selects). *)
let rule_cache ?level ctx (choice, _violation) =
  let nest = Analysis_ctx.nest ctx in
  let machine = Analysis_ctx.machine ctx in
  Cachecheck.diagnostics ?level ~u:choice.Search.u ~machine nest

let analysis_phase ?level ctx =
  let search = guarded_search ctx in
  rule_star ctx @ rule_clamped ctx @ rule_search ctx search
  @ rule_cache ?level ctx search

(* ---- driver ------------------------------------------------------------ *)

let finish ?rules:selected ds =
  let ds =
    match selected with
    | None -> ds
    | Some ids -> List.filter (fun (d : Diagnostic.t) -> List.mem d.Diagnostic.rule ids) ds
  in
  if Obs.enabled () then
    List.iter
      (fun (d : Diagnostic.t) ->
        Obs.Counter.incr (Obs.counter ("lint.rule." ^ d.Diagnostic.rule)))
      ds;
  List.stable_sort Diagnostic.compare ds

(* The analysis phase runs only past a clean structure phase, so [ctx]
   is forced only then. *)
let phases ?rules ?level ~machine nest ctx =
  let ds = Cachecheck.geometry_diagnostics ~machine nest @ structure_phase nest in
  finish ?rules
    (if List.exists Diagnostic.is_error ds then ds
     else ds @ analysis_phase ?level (Lazy.force ctx))

let run_ctx ?rules ?level ctx =
  phases ?rules ?level ~machine:(Analysis_ctx.machine ctx)
    (Analysis_ctx.nest ctx) (Lazy.from_val ctx)

let run ?rules ?level ?bound ?max_loops ~machine nest =
  phases ?rules ?level ~machine nest
    (lazy (Analysis_ctx.create ?bound ?max_loops ~machine nest))
