open Ujam_ir
open Ujam_core
open Ujam_linalg
module Json = Ujam_obs.Json

type t = {
  nest : string;
  machine : string;
  depth : int;
  flops : int;
  supported : string option;
  coupled_sites : int;
  star_edges : int;
  safety : int array;
  ranked : (int * float) list;
  unroll_levels : int list;
  box : int array;
  clamped : (int * int) list;
  monotone : Monotone.violation option;
  choice : Search.choice option;
  choice_no_cache : Search.choice option;
  model : string;
  sequence : Passes.step list;
  reasons : string list;
  diagnostics : Diagnostic.t list;
  cache : Cachecheck.t option;
}

let run ?bound ?max_loops ?level ?(seq = false) ~machine nest =
  let name = Nest.name nest in
  let flops = Nest.flops_per_iteration nest in
  let coupled_sites =
    List.length
      (List.filter
         (fun (s : Site.t) -> not (Aref.is_separable_siv s.Site.ref_))
         (Site.of_nest nest))
  in
  let supported =
    Option.map (Supported.message nest) (Supported.find_violation nest)
  in
  let base reasons model =
    { nest = name;
      machine = machine.Ujam_machine.Machine.name;
      depth = Nest.depth nest;
      flops;
      supported;
      coupled_sites;
      star_edges = 0;
      safety = [||];
      ranked = [];
      unroll_levels = [];
      box = [||];
      clamped = [];
      monotone = None;
      choice = None;
      choice_no_cache = None;
      model;
      sequence = [];
      reasons;
      diagnostics = [];
      cache = None;
    }
  in
  match supported with
  | Some why ->
      let diagnostics = Lint.run ?bound ?max_loops ~machine nest in
      { (base [ why; "no table model applies; the nest is left alone" ]
           "unsupported")
        with diagnostics }
  | None ->
      let ctx = Analysis_ctx.create ?bound ?max_loops ~machine nest in
      let safety = Analysis_ctx.safety ctx in
      let star_edges =
        List.length
          (List.filter
             (fun (e : Ujam_depend.Graph.edge) ->
               Array.exists
                 (fun c -> c = Ujam_depend.Depvec.Star)
                 e.Ujam_depend.Graph.dvec)
             (Analysis_ctx.graph ctx).Ujam_depend.Graph.edges)
      in
      let space = Analysis_ctx.space ctx in
      let box = Unroll_space.bounds space in
      let request = Analysis_ctx.bound ctx in
      let clamped =
        List.filter_map
          (fun level ->
            if safety.(level) < request then Some (level, safety.(level))
            else None)
          (Analysis_ctx.unroll_levels ctx)
      in
      let choice, monotone =
        Monotone.search ~cache:true (Analysis_ctx.balance ctx)
      in
      let choice_no_cache =
        Search.best ~prune:(monotone = None) ~cache:false
          (Analysis_ctx.balance ctx)
      in
      let trivial = Unroll_space.card space = 1 in
      (* Sequence mode: when the fence binds, report the legalizing
         skew/retime prefix the seq search would choose (and why each
         step was legal) alongside the plain analysis. *)
      let seq_outcome =
        if seq && Seqsearch.fence_binds ctx then
          let o = Seqsearch.search ?bound ?max_loops ~machine nest in
          if o.Seqsearch.sequence = [] then None else Some o
        else None
      in
      let sequence =
        match seq_outcome with
        | Some o -> o.Seqsearch.sequence
        | None -> []
      in
      let model =
        if seq_outcome <> None then "ugs+seq"
        else if flops = 0 || trivial then "trivial"
        else if monotone <> None then "ugs-exhaustive"
        else "ugs"
      in
      let reasons =
        (if flops = 0 then
           [ "no floating-point work: loop balance is undefined and there is \
              nothing to improve" ]
         else [])
        @ (if trivial then
             [ (if Nest.depth nest < 2 then
                  "a depth-1 nest has no outer loop to jam"
                else "legality caps every candidate loop at 0 extra copies") ]
           else [])
        @ List.map
            (fun (level, cap) ->
              Printf.sprintf
                "a carried dependence clamps loop %s to %d extra cop%s \
                 (requested %d)"
                (Nest.var_name nest level) cap
                (if cap = 1 then "y" else "ies")
                request)
            clamped
        @ (if coupled_sites > 0 then
             [ Printf.sprintf
                 "%d coupled subscript site%s: the UGS model still counts \
                  them, but distances may go inconsistent (*)"
                 coupled_sites
                 (if coupled_sites = 1 then "" else "s") ]
           else [])
        @ (if star_edges > 0 then
             [ Printf.sprintf
                 "%d dependence%s with unknown (*) components; legality uses \
                  direction information only"
                 star_edges
                 (if star_edges = 1 then "" else "s") ]
           else [])
        @ (match monotone with
          | Some v ->
              [ Printf.sprintf
                  "register table not monotone at %s (axis %d: %d < %d); \
                   pruned search degraded to the exhaustive scan"
                  (Vec.to_string v.Monotone.u) v.Monotone.axis v.Monotone.at
                  v.Monotone.below ]
          | None -> [ "register table certified monotone; pruned search is sound" ])
        @ (match seq_outcome with
          | Some o ->
              List.map
                (fun d -> d.Diagnostic.message)
                o.Seqsearch.diagnostics
          | None ->
              if seq then
                [ (if Seqsearch.fence_binds ctx then
                     "seq search engaged: no verified prefix beat the \
                      untransformed baseline"
                   else
                     "seq search not engaged: no outer loop is fully fenced")
                ]
              else [])
        @
        if not trivial then
          if Vec.equal choice.Search.u choice_no_cache.Search.u then
            [ Printf.sprintf
                "the cache-miss term does not move the choice: with or \
                 without it the search picks %s"
                (Vec.to_string choice.Search.u) ]
          else
            [ Printf.sprintf
                "the cache-miss term moves the choice: %s with it, %s without"
                (Vec.to_string choice.Search.u)
                (Vec.to_string choice_no_cache.Search.u) ]
        else []
      in
      let cache =
        let u =
          match seq_outcome with
          | Some o -> o.Seqsearch.choice.Search.u
          | None -> choice.Search.u
        in
        match Cachecheck.run ~u ~machine nest with
        | None -> None
        | Some c ->
            Some
              (match level with
              | Some k -> Cachecheck.select_level k c
              | None -> c)
      in
      { (base reasons model) with
        cache;
        star_edges;
        safety;
        ranked = Analysis_ctx.ranked ctx;
        unroll_levels = Analysis_ctx.unroll_levels ctx;
        box;
        clamped;
        monotone;
        choice =
          (match seq_outcome with
          | Some o -> Some o.Seqsearch.choice
          | None -> Some choice);
        choice_no_cache = Some choice_no_cache;
        sequence;
        diagnostics =
          (match seq_outcome with
          | Some o -> o.Seqsearch.diagnostics @ Lint.run_ctx ?level ctx
          | None -> Lint.run_ctx ?level ctx);
      }

let pp_cap ppf c =
  if c = max_int then Format.pp_print_string ppf "inf"
  else Format.pp_print_int ppf c

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>%s on %s: model %s@," t.nest t.machine t.model;
  fprintf ppf "  depth %d, %d flops/iteration" t.depth t.flops;
  (match t.supported with
  | Some why -> fprintf ppf "@,  unsupported: %s" why
  | None ->
      fprintf ppf "@,  legality caps: [%a]"
        (pp_print_array ~pp_sep:(fun ppf () -> pp_print_string ppf "; ") pp_cap)
        t.safety;
      if t.ranked <> [] then
        fprintf ppf "@,  reuse ranking: %a"
          (pp_print_list
             ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
             (fun ppf (level, cost) -> fprintf ppf "loop%d (%.3g)" level cost))
          t.ranked;
      fprintf ppf "@,  search box: %s over loops {%s}"
        (if Array.length t.box = 0 then "-"
         else
           "["
           ^ String.concat "; " (Array.to_list (Array.map string_of_int t.box))
           ^ "]")
        (String.concat "," (List.map string_of_int t.unroll_levels));
      if t.sequence <> [] then begin
        fprintf ppf "@,  sequence:";
        List.iter
          (fun (st : Passes.step) ->
            fprintf ppf "@,    - %s: %s"
              (Ujam_ir.Transform.to_string st.Passes.transform)
              st.Passes.note)
          t.sequence
      end;
      match t.choice with
      | Some c ->
          fprintf ppf "@,  chosen: u=%s balance %.3g, objective %.3g, %d regs"
            (Vec.to_string c.Search.u) c.Search.balance c.Search.objective
            c.Search.registers
      | None -> ());
  (match t.cache with
  | Some c -> fprintf ppf "@,%a" Cachecheck.pp_table c
  | None -> ());
  if t.reasons <> [] then begin
    fprintf ppf "@,  why:";
    List.iter (fun r -> fprintf ppf "@,    - %s" r) t.reasons
  end;
  if t.diagnostics <> [] then begin
    fprintf ppf "@,  diagnostics:";
    List.iter (fun d -> fprintf ppf "@,    %a" Diagnostic.pp d) t.diagnostics
  end;
  fprintf ppf "@]"

let choice_to_json (c : Search.choice) =
  Json.Obj
    [ ("u", Json.List (List.map (fun x -> Json.Int x) (Array.to_list (Vec.to_array c.Search.u))));
      ("balance", Json.Float c.Search.balance);
      ("objective", Json.Float c.Search.objective);
      ("registers", Json.Int c.Search.registers) ]

let to_json t =
  let opt name f = function None -> [] | Some x -> [ (name, f x) ] in
  let cap c = if c = max_int then Json.Str "inf" else Json.Int c in
  Json.Obj
    ([ ("nest", Json.Str t.nest);
       ("machine", Json.Str t.machine);
       ("model", Json.Str t.model);
       ("depth", Json.Int t.depth);
       ("flops", Json.Int t.flops) ]
    @ opt "unsupported" (fun s -> Json.Str s) t.supported
    @ [ ("coupled_sites", Json.Int t.coupled_sites);
        ("star_edges", Json.Int t.star_edges);
        ("safety", Json.List (List.map cap (Array.to_list t.safety)));
        ( "unroll_levels",
          Json.List (List.map (fun l -> Json.Int l) t.unroll_levels) );
        ("box", Json.List (List.map (fun b -> Json.Int b) (Array.to_list t.box)));
        ( "clamped",
          Json.List
            (List.map
               (fun (level, c) ->
                 Json.Obj [ ("level", Json.Int level); ("cap", Json.Int c) ])
               t.clamped) );
        ("monotone", Json.Bool (t.monotone = None)) ]
    @ opt "choice" choice_to_json t.choice
    @ opt "choice_no_cache" choice_to_json t.choice_no_cache
    @ (if t.sequence = [] then []
       else [ ("sequence", Seqsearch.steps_json t.sequence) ])
    @ opt "cache" Cachecheck.to_json t.cache
    @ [ ("reasons", Json.List (List.map (fun r -> Json.Str r) t.reasons));
        ( "diagnostics",
          Json.List (List.map Diagnostic.to_json t.diagnostics) ) ])
