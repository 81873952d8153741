open Ujam_ir
open Ujam_machine
open Ujam_engine
module Json = Ujam_obs.Json
open Ujam_workload
module Obs = Ujam_obs.Obs

(* Oracle metrics: no-ops until the observability sink is enabled.  The
   verify and native layers bump their own counters on every check,
   shrinker re-runs included. *)
let m_nests = Obs.counter "oracle.nests"
let m_mismatches = Obs.counter "oracle.mismatches"
let m_unexplained = Obs.counter "oracle.unexplained"
let m_failures = Obs.counter "oracle.failures"
let m_verify_checked = Obs.counter "oracle.verify.checked"
let m_verify_failed = Obs.counter "oracle.verify.failed"
let m_native_checked = Obs.counter "oracle.native.checked"
let m_native_skipped = Obs.counter "oracle.native.skipped"

type tally = { checked : int; skipped : int; failed : int }

type layer = {
  name : string;
  default : bool;
  stage : Error.stage;
  check : config -> Nest.t -> Mismatch.t list * tally;
  render : tally -> (string * (string * int) list) option;
}

and config = {
  n : int;
  seed : int;
  max_depth : int;
  bound : int;
  max_loops : int;
  machine : Machine.t;
  domains : int;
  layers : layer list;
  shrink : bool;
  deep : bool;
  recurrent : bool;
  dedup : bool;
}

let layer_name l = l.name
let zero = { checked = 0; skipped = 0; failed = 0 }

let add a b =
  { checked = a.checked + b.checked;
    skipped = a.skipped + b.skipped;
    failed = a.failed + b.failed }

(* A layer's findings with [failed] set to their count. *)
let tallied ?(checked = 0) ?(skipped = 0) ms =
  (ms, { checked; skipped; failed = List.length ms })

let layer ?(default = true) ?(render = fun _ -> None) name stage check =
  { name; default; stage; check; render }

(* The report line and JSON key of a layer that only counts [checked]. *)
let checked_line fmt key t = Some (Printf.sprintf fmt t.checked, [ (key, t.checked) ])

(* Every vector of the searched space through the gated pipeline
   ({!Ujam_analysis.Passes.apply_seq}: the legality gate, the structural
   transform and the index-algebra post-condition all run per vector),
   the dependence graph built once per nest. *)
let each_unroll { bound; max_loops; machine; _ } nest f =
  let ctx = Ujam_core.Analysis_ctx.create ~bound ~max_loops ~machine nest in
  let graph = Ujam_core.Analysis_ctx.graph ctx in
  Ujam_core.Unroll_space.iter (Ujam_core.Analysis_ctx.space ctx) (fun u ->
      f u (Ujam_analysis.Passes.apply_seq ~graph nest [ Transform.Unroll u ]))

(* ---- the layers ------------------------------------------------------- *)

let recount ?perturb () =
  layer "recount" Error.Tables (fun { bound; max_loops; machine; _ } nest ->
      tallied ~checked:1 (Recount.check ~bound ~max_loops ?perturb ~machine nest))

let sim =
  layer "sim" Error.Sim
    ~render:(checked_line "sim layer: %d nests replayed through the cache model" "sim_checked")
    (fun { bound; max_loops; machine; _ } nest ->
      let o = Simcheck.check ~bound ~max_loops ~machine nest in
      tallied ~checked:(min 1 o.Simcheck.simulated) o.Simcheck.mismatches)

let cross_model =
  layer "cross-model" Error.Search (fun { bound; max_loops; machine; _ } nest ->
      tallied ~checked:1 (Crossmodel.check ~bound ~max_loops ~machine nest))

(* The verify layer: any diagnostic of the gated pipeline is a mismatch
   the tables could never have caught (they never materialise code). *)
let verify =
  layer "verify" Error.Transform
    ~render:(fun t ->
      Some
        ( Printf.sprintf "verify layer: %d unrolled bodies checked, %d rejected"
            t.checked t.failed,
          [ ("verify_checked", t.checked); ("verify_failed", t.failed) ] ))
    (fun cfg nest ->
      let ms = ref [] and checked = ref 0 in
      each_unroll cfg nest (fun u r ->
          incr checked;
          match r with
          | Ok _ -> ()
          | Error diags ->
              List.iter
                (fun (d : Ujam_analysis.Diagnostic.t) ->
                  ms :=
                    Mismatch.make ~nest:(Nest.name nest)
                      ~machine:cfg.machine.Machine.name
                      (Mismatch.Verify
                         { u;
                           rule = d.Ujam_analysis.Diagnostic.rule;
                           detail = d.Ujam_analysis.Diagnostic.message })
                    :: !ms)
                diags);
      Obs.Counter.add m_verify_checked !checked;
      Obs.Counter.add m_verify_failed (List.length !ms);
      tallied ~checked:!checked (List.rev !ms))

let cachepred =
  layer "cachepred" Error.Sim
    ~render:
      (checked_line "cachepred layer: %d nests checked against the hierarchy simulator"
         "cachepred_checked")
    (fun { machine; _ } nest ->
      let o = Cachepred.check ~machine nest in
      tallied ~checked:(min 1 o.Cachepred.levels_checked) o.Cachepred.mismatches)

(* The native layer: lower the original nest plus a deterministic
   sample of its legalized unroll variants to one compiled program
   ({!Ujam_native}) and demand that every variant's per-array checksums
   match the reference interpreter run of that same variant.  A missing
   toolchain is a skip, never a failure — the analytical layers keep
   their verdicts. *)
let native_max_variants = 4

let native_check ~drop_copy cfg nest =
  match Ujam_native.Toolchain.find () with
  | Error _ ->
      Obs.Counter.incr m_native_skipped;
      tallied ~skipped:1 []
  | Ok tc ->
      let legal = ref [] in
      each_unroll cfg nest (fun u r ->
          match r with
          | Ok (nest', _) when not (Ujam_linalg.Vec.is_zero u) ->
              legal := (u, nest') :: !legal
          | _ -> ());
      let legal = List.rev !legal in
      (* deterministic, evenly spaced sample: compiling every vector of
         the space per nest would swamp the run *)
      let sampled =
        let n = List.length legal in
        if n <= native_max_variants then legal
        else
          List.filteri
            (fun i _ ->
              i * native_max_variants / n
              <> (i + 1) * native_max_variants / n)
            legal
      in
      let variants =
        { Ujam_native.Emit.vname = "orig"; nest }
        :: List.map
             (fun (u, nest') ->
               { Ujam_native.Emit.vname = "u=" ^ Ujam_linalg.Vec.to_string u;
                 nest = nest' })
             sampled
      in
      let spec =
        { Ujam_native.Emit.uname = Nest.name nest;
          seed = cfg.seed;
          repeats = 1;
          variants }
      in
      (match Ujam_native.Native.run_units ~drop_last_stmt:drop_copy tc [ spec ] with
      | Error msg -> failwith msg
      | Ok [ res ] ->
          let eqs = Ujam_native.Native.equivalences spec res in
          let ms =
            List.concat_map
              (fun (e : Ujam_native.Native.equivalence) ->
                List.map
                  (fun (d : Ujam_native.Native.diff) ->
                    Mismatch.make ~nest:(Nest.name nest)
                      ~machine:cfg.machine.Machine.name
                      (Mismatch.Native
                         { variant = e.Ujam_native.Native.vname;
                           array_name = d.Ujam_native.Native.array_name;
                           native = d.Ujam_native.Native.native;
                           expected = d.Ujam_native.Native.expected }))
                  e.Ujam_native.Native.diffs)
              eqs
          in
          Obs.Counter.add m_native_checked (List.length variants);
          tallied ~checked:(List.length variants) ms
      | Ok _ -> failwith "native program returned wrong unit count")

(* The native layer stays opt-in: it forks the host toolchain per nest,
   which is orders of magnitude slower than the analytical layers. *)
let native ?(drop_copy = false) () =
  layer "native" Error.Native ~default:false
    ~render:(fun t ->
      Some
        ( (if t.skipped > 0 && t.checked = 0 then
             Printf.sprintf
               "native layer: native_skipped (no toolchain, %d nests not compiled)"
               t.skipped
           else
             Printf.sprintf
               "native layer: %d variants compiled and validated (%d nests skipped)"
               t.checked t.skipped),
          [ ("native_checked", t.checked); ("native_skipped", t.skipped) ] ))
    (native_check ~drop_copy)

let registry = [ recount (); sim; cross_model; verify; cachepred; native () ]
let all_layers = List.filter (fun l -> l.default) registry

let default_config ?(machine = Presets.alpha) () =
  { n = 200;
    seed = 1997;
    max_depth = 3;
    bound = 4;
    max_loops = 2;
    machine;
    domains = 1;
    layers = all_layers;
    shrink = true;
    deep = false;
    recurrent = false;
    dedup = false }

type failure = {
  routine : string;
  nest : Nest.t;
  error : Error.t option;
  mismatches : Mismatch.t list;
  reduced : Nest.t option;
}

type report = {
  config : config;
  nests : int;
  routines : int;
  draws : int;
  rejected : int;
  skipped_depth : int;
  deduped : int;
  digest_s : float;
  fenced : int;
  tallies : (layer * tally) list;
  total_mismatches : int;
  unexplained : int;
  failures : failure list;
}

(* ---- one nest through the configured layers, with shrinking ---------- *)

let check_layer cfg ~routine l nest =
  match Error.guard ~stage:l.stage ~routine (fun () -> l.check cfg nest) with
  | Ok (ms, t) -> (ms, t, None)
  | Error e -> ([], zero, Some e)

let unexplained_of ms = List.filter (fun m -> not (Mismatch.is_explained m)) ms

(* The per-layer tallies, aligned with [cfg.layers], and the failure. *)
let check_nest cfg ~routine nest =
  let results =
    List.map (fun l -> (l, check_layer cfg ~routine l nest)) cfg.layers
  in
  let tallies = List.map (fun (_, (_, t, _)) -> t) results in
  let mismatches = List.concat_map (fun (_, (ms, _, _)) -> ms) results in
  let error = List.find_map (fun (_, (_, _, e)) -> e) results in
  if unexplained_of mismatches = [] && error = None then (tallies, None)
  else
    let reduced =
      if not cfg.shrink then None
      else
        (* Re-run only the layers that failed; an analysis crash counts as
           the same failure only when the original run also crashed (and
           produced no unexplained mismatch — mismatches take priority). *)
        let want_error = error <> None && unexplained_of mismatches = [] in
        let failed (ms, _, e) =
          if want_error then e <> None else unexplained_of ms <> []
        in
        let fail_layers =
          List.filter_map (fun (l, r) -> if failed r then Some l else None) results
        in
        let still_fails n =
          List.exists (fun l -> failed (check_layer cfg ~routine l n)) fail_layers
        in
        Some (Shrink.run ~still_fails nest)
    in
    (tallies, Some { routine; nest; error; mismatches; reduced })

(* Layers the report renders, in registry order: every default layer
   (zero when not configured) and every configured one; configured
   layers outside the registry follow in config order. *)
let reported layers =
  let find name ls = List.find_opt (fun l -> l.name = name) ls in
  List.filter_map
    (fun l ->
      match find l.name layers with
      | Some c -> Some c
      | None -> if l.default then Some l else None)
    registry
  @ List.filter (fun c -> find c.name registry = None) layers

(* ---- the run ---------------------------------------------------------- *)

let run cfg =
  let stats = Generator.stats () in
  let st = Random.State.make [| cfg.seed |] in
  let jobs = ref [] in
  let count = ref 0 and idx = ref 0 and skipped_depth = ref 0 in
  let deduped = ref 0 and digest_s = ref 0.0 in
  let seen = Hashtbl.create 64 in
  let max_draws = (cfg.n * 8) + 16 in
  while !count < cfg.n && !idx < max_draws do
    let r =
      Generator.routine ~deep:cfg.deep ~recurrent:cfg.recurrent ~stats st !idx
    in
    incr idx;
    List.iter
      (fun nest ->
        if !count < cfg.n then
          if Nest.depth nest > cfg.max_depth then incr skipped_depth
          else begin
            (* duplicate-skipping: a nest whose canonical digest was
               already queued re-checks nothing — skip it and let the
               loop draw a fresh one in its place. *)
            let dup =
              cfg.dedup
              &&
              let t0 = Sys.time () in
              let d = Canon.digest nest in
              digest_s := !digest_s +. (Sys.time () -. t0);
              if Hashtbl.mem seen d then true
              else begin
                Hashtbl.add seen d ();
                false
              end
            in
            if dup then incr deduped
            else begin
              incr count;
              jobs := (r.Generator.name, nest) :: !jobs
            end
          end)
      r.Generator.nests
  done;
  let jobs = Array.of_list (List.rev !jobs) in
  let results =
    Engine.parallel_map ~domains:cfg.domains
      ~f:(fun ~domain:_ (routine, nest) ->
        check_nest cfg ~routine nest)
      jobs
  in
  let failures = Array.to_list results |> List.filter_map snd in
  let tallies =
    List.map
      (fun l ->
        let sum acc (ts, _) =
          List.fold_left2
            (fun acc c t -> if c.name = l.name then add acc t else acc)
            acc cfg.layers ts
        in
        (l, Array.fold_left sum zero results))
      (reported cfg.layers)
  in
  let total_mismatches =
    List.fold_left (fun acc f -> acc + List.length f.mismatches) 0 failures
  in
  let unexplained =
    List.fold_left
      (fun acc f -> acc + List.length (unexplained_of f.mismatches))
      0 failures
  in
  Obs.Counter.add m_nests (Array.length jobs);
  Obs.Counter.add m_mismatches total_mismatches;
  Obs.Counter.add m_unexplained unexplained;
  Obs.Counter.add m_failures (List.length failures);
  { config = cfg;
    nests = Array.length jobs;
    routines = !idx;
    draws = stats.Generator.generated;
    rejected = stats.Generator.rejected;
    skipped_depth = !skipped_depth;
    deduped = !deduped;
    digest_s = !digest_s;
    fenced = stats.Generator.fenced;
    tallies;
    total_mismatches;
    unexplained;
    failures }

let ok r = r.unexplained = 0 && List.for_all (fun f -> f.error = None) r.failures

(* ---- rendering -------------------------------------------------------- *)

let pp ppf r =
  let c = r.config in
  Format.fprintf ppf
    "differential oracle: seed=%d machine=%s bound=%d depth<=%d layers=%s%s@."
    c.seed c.machine.Machine.name c.bound c.max_depth
    (String.concat "," (List.map layer_name c.layers))
    ((if c.deep then " deep-space" else "")
    ^ if c.recurrent then " recurrent" else "");
  Format.fprintf ppf
    "nests: %d checked (%d routines, %d draws, %d out-of-class re-rolls, %d over depth limit)@."
    r.nests r.routines r.draws r.rejected r.skipped_depth;
  if c.dedup then
    Format.fprintf ppf
      "dedup: %d duplicate nests skipped by canonical digest@." r.deduped;
  if c.recurrent then
    Format.fprintf ppf
      "recurrent mode: %d of %d emitted nests have a binding safety fence@."
      r.fenced r.nests;
  List.iter
    (fun (l, t) ->
      Option.iter (fun (line, _) -> Format.fprintf ppf "%s@." line) (l.render t))
    r.tallies;
  Format.fprintf ppf "mismatches: %d total, %d unexplained@."
    r.total_mismatches r.unexplained;
  List.iter
    (fun f ->
      Format.fprintf ppf "@.failure: %s (%s)@." (Nest.name f.nest) f.routine;
      (match f.error with
      | Some e -> Format.fprintf ppf "  error: %a@." Error.pp e
      | None -> ());
      List.iteri
        (fun i m -> if i < 5 then Format.fprintf ppf "  %a@." Mismatch.pp m)
        f.mismatches;
      let rest = List.length f.mismatches - 5 in
      if rest > 0 then Format.fprintf ppf "  ... and %d more@." rest;
      match f.reduced with
      | None -> ()
      | Some n ->
          Format.fprintf ppf "  reduced reproducer:@.";
          String.split_on_char '\n' (Nest.to_string n)
          |> List.iter (fun line ->
                 if line <> "" then Format.fprintf ppf "    %s@." line);
          Format.fprintf ppf "  rebuild with:@.";
          String.split_on_char '\n' (Shrink.to_snippet n)
          |> List.iter (fun line ->
                 if line <> "" then Format.fprintf ppf "    %s@." line))
    r.failures;
  Format.fprintf ppf "result: %s@."
    (if ok r then "ok"
     else Printf.sprintf "%d unexplained mismatch(es), %d error(s)"
         r.unexplained
         (List.length (List.filter (fun f -> f.error <> None) r.failures)))

let failure_to_json f =
  Json.Obj
    [ ("routine", Json.Str f.routine);
      ("nest", Json.Str (Nest.name f.nest));
      ( "error",
        match f.error with
        | Some e -> Json.Str (Error.to_string e)
        | None -> Json.Null );
      ("mismatches", Json.List (List.map Mismatch.to_json f.mismatches));
      ( "reduced",
        match f.reduced with
        | Some n -> Shrink.to_json n
        | None -> Json.Null ) ]

let to_json r =
  let c = r.config in
  Json.Obj
    ([ ("seed", Json.Int c.seed);
      ("n", Json.Int c.n);
      ("machine", Json.Str c.machine.Machine.name);
      ("bound", Json.Int c.bound);
      ("max_depth", Json.Int c.max_depth);
      ("deep", Json.Bool c.deep);
      ("recurrent", Json.Bool c.recurrent);
      ( "layers",
        Json.List (List.map (fun l -> Json.Str (layer_name l)) c.layers) );
      ("nests", Json.Int r.nests);
      ("routines", Json.Int r.routines);
      ("draws", Json.Int r.draws);
      ("rejected", Json.Int r.rejected);
      ("skipped_depth", Json.Int r.skipped_depth);
      ("deduped", Json.Int r.deduped) ]
    (* digest accounting appears only under [--dedup], keeping the
       pinned default-run JSON byte-stable (the native fields below
       follow the same rule) *)
    @ (if c.dedup then
         [ ("digest_s", Json.Float r.digest_s) ]
       else [])
    @ (("fenced", Json.Int r.fenced)
      :: List.concat_map
           (fun (l, t) ->
             match l.render t with
             | Some (_, fields) -> List.map (fun (k, v) -> (k, Json.Int v)) fields
             | None -> [])
           r.tallies)
    @ [ ("mismatches", Json.Int r.total_mismatches);
      ("unexplained", Json.Int r.unexplained);
      ("ok", Json.Bool (ok r));
      ("failures", Json.List (List.map failure_to_json r.failures)) ])
